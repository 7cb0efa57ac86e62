package coverage

import (
	"encoding/json"
	"slices"
	"strings"
)

// Counts is one space's per-partition frequencies: a row per label, the
// labels unique and ordered by strings.Compare. That is the order
// encoding/json gives a map's keys, so WriteJSON writes the rows, in slice
// order, as the JSON object a map[string]int64 would encode to.
// Analyzer.Snapshot builds the rows in that order from each domain's label
// order, and UnmarshalJSON sorts what it reads.
type Counts []Row

// search returns the index of label's row, or where it would be inserted.
func (c Counts) search(label string) (int, bool) {
	return slices.BinarySearchFunc(c, label, func(r Row, label string) int { return strings.Compare(r.Label, label) })
}

// Get returns label's count, or 0 when it has no row.
func (c Counts) Get(label string) int64 {
	if i, ok := c.search(label); ok {
		return c[i].Count
	}
	return 0
}

// at returns a pointer to label's count, inserting a zero row first when
// it has none. The pointer is valid until the next insert.
func (c *Counts) at(label string) *int64 {
	i, ok := c.search(label)
	if !ok {
		*c = slices.Insert(*c, i, Row{Label: label})
	}
	return &(*c)[i].Count
}

// mergeCounts is the sum of two label-sorted row lists, merged in one
// pass; a label in both gets one row. It is a new slice, never nil, so a
// merged space always encodes its counts as an object.
func mergeCounts(x, y Counts) Counts {
	out := make(Counts, 0, len(x)+len(y))
	for len(x) > 0 && len(y) > 0 {
		switch c := strings.Compare(x[0].Label, y[0].Label); {
		case c < 0:
			out, x = append(out, x[0]), x[1:]
		case c > 0:
			out, y = append(out, y[0]), y[1:]
		default:
			out = append(out, Row{Label: x[0].Label, Count: x[0].Count + y[0].Count})
			x, y = x[1:], y[1:]
		}
	}
	return append(append(out, x...), y...)
}

// UnmarshalJSON reads a JSON object of counts with encoding/json's map
// semantics: the last of duplicate keys wins, invalid UTF-8 in a key
// becomes U+FFFD, and null gives a nil Counts. The rows are then sorted by
// label, whatever order the keys came in.
func (c *Counts) UnmarshalJSON(data []byte) error {
	var m map[string]int64
	if err := json.Unmarshal(data, &m); err != nil {
		return err
	}
	if m == nil {
		*c = nil
		return nil
	}
	rows := make(Counts, 0, len(m))
	for label, n := range m {
		rows = append(rows, Row{Label: label, Count: n})
	}
	slices.SortFunc(rows, func(x, y Row) int { return strings.Compare(x.Label, y.Label) })
	*c = rows
	return nil
}
