package coverage

import (
	"bytes"
	"encoding/json"
	"errors"
	"math/rand"
	"reflect"
	"sort"
	"strings"
	"testing"

	"iocov/internal/raceflag"
)

// The oracle's mirror of the snapshot types: the same fields and JSON
// tags, but with every label-keyed section a map, as the snapshot held it
// before its rows. encoding/json sorts a map's keys itself, so the oracle
// shares no code with WriteJSON or with Counts.
type (
	mirrorSnapshot struct {
		Analyzed   int64           `json:"analyzed"`
		Skipped    int64           `json:"skipped"`
		Inputs     []mirrorSpace   `json:"inputs"`
		Outputs    []mirrorSpace   `json:"outputs"`
		OpenCombos *SnapshotCombos `json:"open_combos,omitempty"`
	}
	mirrorSpace struct {
		Syscall  string           `json:"syscall"`
		Arg      string           `json:"arg,omitempty"`
		Class    string           `json:"class,omitempty"`
		Domain   int              `json:"domain"`
		Covered  int              `json:"covered"`
		Counts   map[string]int64 `json:"counts"`
		Untested []string         `json:"untested,omitempty"`
		Extra    map[string]int64 `json:"extra,omitempty"`
	}
)

// mirror copies s into the oracle's map-shaped types, keeping nil apart
// from empty.
func mirror(s *Snapshot) *mirrorSnapshot {
	if s == nil {
		return nil
	}
	toMap := func(c Counts) map[string]int64 {
		if c == nil {
			return nil
		}
		m := make(map[string]int64, len(c))
		for _, r := range c {
			m[r.Label] = r.Count
		}
		return m
	}
	pool := func(spaces []SnapshotSpace) []mirrorSpace {
		if spaces == nil {
			return nil
		}
		out := make([]mirrorSpace, len(spaces))
		for i, sp := range spaces {
			out[i] = mirrorSpace{sp.Syscall, sp.Arg, sp.Class, sp.Domain, sp.Covered, toMap(sp.Counts), sp.Untested, toMap(sp.Extra)}
		}
		return out
	}
	return &mirrorSnapshot{s.Analyzed, s.Skipped, pool(s.Inputs), pool(s.Outputs), s.OpenCombos}
}

// oracleJSON is the encoding WriteJSON must write: encoding/json of the
// snapshot's map-shaped mirror, with two-space indentation.
func oracleJSON(t testing.TB, s *Snapshot) []byte {
	t.Helper()
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	enc.SetIndent("", "  ")
	if err := enc.Encode(mirror(s)); err != nil {
		t.Fatalf("encoding/json: %v", err)
	}
	return buf.Bytes()
}

// checkAgainstOracle fails when WriteJSON's bytes differ from the oracle's.
func checkAgainstOracle(t testing.TB, s *Snapshot) {
	t.Helper()
	var got bytes.Buffer
	if err := s.WriteJSON(&got); err != nil {
		t.Fatalf("WriteJSON: %v", err)
	}
	if want := oracleJSON(t, s); !bytes.Equal(got.Bytes(), want) {
		t.Fatalf("WriteJSON differs from the oracle\n got: %q\nwant: %q", got.Bytes(), want)
	}
}

// rowsOf turns a map into label-sorted rows, keeping nil apart from empty.
func rowsOf(m map[string]int64) Counts {
	if m == nil {
		return nil
	}
	c := Counts{}
	for label, n := range m {
		c = append(c, Row{label, n})
	}
	sort.Slice(c, func(i, j int) bool { return c[i].Label < c[j].Label })
	return c
}

// withCount returns c with label's count set to n.
func withCount(c Counts, label string, n int64) Counts {
	m := map[string]int64{label: n}
	for _, r := range c {
		if r.Label != label {
			m[r.Label] = r.Count
		}
	}
	return rowsOf(m)
}

// TestWriteJSONMatchesEncodingJSON holds the writer to the encoder it
// replaced: an analyzer's snapshot, each edge of the encoding rules, and
// random snapshots built from awkward labels.
func TestWriteJSONMatchesEncodingJSON(t *testing.T) {
	checkAgainstOracle(t, seedAnalyzer().Snapshot(0))
	checkAgainstOracle(t, NewAnalyzer(DefaultOptions()).Snapshot(0))
	checkAgainstOracle(t, nil)
	for name, s := range map[string]*Snapshot{
		"zero":         {},
		"empty pools":  {Inputs: []SnapshotSpace{}, Outputs: []SnapshotSpace{}},
		"nil counts":   {Inputs: []SnapshotSpace{{Syscall: "open"}}},
		"empty maps":   {Outputs: []SnapshotSpace{{Syscall: "open", Counts: Counts{}, Extra: Counts{}, Untested: []string{}}}},
		"nil combos":   {OpenCombos: &SnapshotCombos{}},
		"empty combos": {OpenCombos: &SnapshotCombos{All: map[int]int64{}, Rdonly: map[int]int64{}}},
		"combo order":  {OpenCombos: &SnapshotCombos{All: map[int]int64{10: 1, 2: 2, -1: 3, 1: 4, -10: 5, 0: 6}, Rdonly: map[int]int64{100: 7, 11: 8}}},
		"escapes": {Inputs: []SnapshotSpace{{
			Syscall: "a<b>&c\"\\", Arg: "\x00\x01\b\f\n\r\t\x1f\x7f", Class: "\u2028\u2029\u2027\u202a",
			Domain: -1, Covered: 1 << 40,
			Counts:   rowsOf(map[string]int64{"\xff": 1, "ok\xe2\x80": 2, "\u00e9\u20ac\U0001d11e": -3, "": 4, "<": 5, ">": 6}),
			Untested: []string{"\xed\xa0\x80", "\xf4\x90\x80\x80", "a\xc0\xafb"},
			Extra:    Counts{{"E&", -9223372036854775808}},
		}}},
	} {
		t.Run(name, func(t *testing.T) { checkAgainstOracle(t, s) })
	}
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 2000; i++ {
		checkAgainstOracle(t, randomSnapshot(rng))
	}
}

// labelPieces are the pieces random labels are made of: plain text, every
// class of escaped byte, multi-byte runes, and invalid UTF-8.
var labelPieces = []string{"O_RDONLY", "2^4", "a", "Z", "0", "<", ">", "&", `"`, `\`, "\x00", "\x1f", "\n", "\t", "\x7f",
	"\u00e9", "\u20ac", "\U0001d11e", "\u2028", "\u2029", "\xff", "\xe2\x80", "\xed\xa0\x80", " "}

func randomLabel(rng *rand.Rand) string {
	var b strings.Builder
	for n := rng.Intn(4); n > 0; n-- {
		b.WriteString(labelPieces[rng.Intn(len(labelPieces))])
	}
	return b.String()
}

func randomCounts(rng *rand.Rand) Counts {
	switch rng.Intn(4) {
	case 0:
		return nil
	case 1:
		return Counts{}
	}
	m := make(map[string]int64)
	for n := rng.Intn(12); n > 0; n-- {
		m[randomLabel(rng)] = rng.Int63n(1<<40) - 1<<39
	}
	return rowsOf(m)
}

func randomCombos(rng *rand.Rand) map[int]int64 {
	if rng.Intn(3) == 0 {
		return nil
	}
	m := make(map[int]int64)
	for n := rng.Intn(40); n > 0; n-- {
		m[rng.Intn(2000)-1000] = rng.Int63()
	}
	return m
}

func randomSnapshot(rng *rand.Rand) *Snapshot {
	s := &Snapshot{Analyzed: rng.Int63() - rng.Int63(), Skipped: rng.Int63n(100)}
	pool := func() []SnapshotSpace {
		if rng.Intn(4) == 0 {
			return nil
		}
		out := make([]SnapshotSpace, rng.Intn(5))
		for i := range out {
			out[i] = SnapshotSpace{
				Syscall: randomLabel(rng), Arg: randomLabel(rng), Class: randomLabel(rng),
				Domain: rng.Intn(200) - 100, Covered: rng.Intn(100),
				Counts: randomCounts(rng), Extra: randomCounts(rng),
			}
			if rng.Intn(2) == 0 {
				out[i].Untested = make([]string, rng.Intn(4))
				for j := range out[i].Untested {
					out[i].Untested[j] = randomLabel(rng)
				}
			}
		}
		return out
	}
	s.Inputs, s.Outputs = pool(), pool()
	if rng.Intn(3) > 0 {
		s.OpenCombos = &SnapshotCombos{All: randomCombos(rng), Rdonly: randomCombos(rng)}
	}
	return s
}

// TestSnapshotSchemaPinned pins the fields the writer knows, in its order,
// with their JSON tags. A field added to a snapshot type fails here until
// the writer writes it and this list names it.
func TestSnapshotSchemaPinned(t *testing.T) {
	for _, c := range []struct {
		typ  reflect.Type
		want []string
	}{
		{reflect.TypeOf(Snapshot{}), []string{
			"Analyzed analyzed", "Skipped skipped", "Inputs inputs", "Outputs outputs", "OpenCombos open_combos,omitempty"}},
		{reflect.TypeOf(SnapshotSpace{}), []string{
			"Syscall syscall", "Arg arg,omitempty", "Class class,omitempty", "Domain domain", "Covered covered",
			"Counts counts", "Untested untested,omitempty", "Extra extra,omitempty"}},
		{reflect.TypeOf(SnapshotCombos{}), []string{"All all", "Rdonly rdonly"}},
	} {
		var got []string
		for i := 0; i < c.typ.NumField(); i++ {
			f := c.typ.Field(i)
			got = append(got, f.Name+" "+f.Tag.Get("json"))
		}
		if !reflect.DeepEqual(got, c.want) {
			t.Errorf("%s fields changed; update WriteJSON and this list\n got: %q\nwant: %q", c.typ, got, c.want)
		}
	}
}

// TestWriteJSONAllocs pins the writer's allocations: into a buffer already
// large enough, WriteJSON writes the rows as they are, with no key scratch
// and no sort. An open-combination map of more than 32 keys would cost its
// key list one allocation; seedAnalyzer's has two keys.
func TestWriteJSONAllocs(t *testing.T) {
	if raceflag.Enabled {
		t.Skip("alloc counts are unreliable under -race")
	}
	s := seedAnalyzer().Snapshot(0)
	var buf bytes.Buffer
	buf.Grow(1 << 16)
	n := testing.AllocsPerRun(100, func() {
		buf.Reset()
		if err := s.WriteJSON(&buf); err != nil {
			t.Fatal(err)
		}
	})
	if n > 1 {
		t.Fatalf("WriteJSON into a pre-grown buffer allocates %.1f times, want at most 1", n)
	}
}

// writeRecorder records each Write call it gets.
type writeRecorder struct {
	writes [][]byte
	err    error
}

func (w *writeRecorder) Write(p []byte) (int, error) {
	w.writes = append(w.writes, append([]byte(nil), p...))
	if w.err != nil {
		return 0, w.err
	}
	return len(p), nil
}

// TestWriteJSONOneWrite checks a writer that is not a bytes.Buffer: the
// render arrives in one Write call, and that call's error is WriteJSON's.
func TestWriteJSONOneWrite(t *testing.T) {
	s := seedAnalyzer().Snapshot(0)
	var w writeRecorder
	if err := s.WriteJSON(&w); err != nil {
		t.Fatalf("WriteJSON: %v", err)
	}
	if len(w.writes) != 1 || !bytes.Equal(w.writes[0], oracleJSON(t, s)) {
		t.Fatalf("got %d writes, want 1 write of the oracle's bytes", len(w.writes))
	}
	failing := writeRecorder{err: errors.New("disk full")}
	if err := s.WriteJSON(&failing); err != failing.err {
		t.Fatalf("WriteJSON error = %v, want %v", err, failing.err)
	}
	// A bytes.Buffer that already holds data is appended to.
	buf := bytes.NewBufferString("head\n")
	if err := s.WriteJSON(buf); err != nil {
		t.Fatal(err)
	}
	if want := append([]byte("head\n"), oracleJSON(t, s)...); !bytes.Equal(buf.Bytes(), want) {
		t.Fatalf("append to a non-empty buffer\n got: %q\nwant: %q", buf.Bytes(), want)
	}
}

// FuzzSnapshotJSON is the writer's differential test: encoding/json is the
// oracle. Each input is a snapshot read with LoadSnapshot (or the zero
// snapshot when it does not load), into which the fuzzed label and combo
// key are planted; shape picks where they go and which maps and slices are
// nil or empty. The labels reach what JSON input cannot carry: invalid
// UTF-8 and lone surrogates.
func FuzzSnapshotJSON(f *testing.F) {
	for _, seed := range snapshotFuzzSeeds(f) {
		f.Add(seed, "<a&b>\x00\u2028\xff", int64(-10), uint16(0x03ff))
		f.Add(seed, "", int64(2), uint16(0))
	}
	f.Fuzz(func(t *testing.T, data []byte, label string, key int64, shape uint16) {
		s, err := LoadSnapshot(bytes.NewReader(data))
		if err != nil || s == nil {
			s = &Snapshot{}
		}
		bit := func(i uint) bool { return shape&(1<<i) != 0 }
		if bit(0) {
			s.Inputs = append(s.Inputs, SnapshotSpace{Syscall: label, Arg: label, Class: label})
		}
		if bit(1) {
			s.Outputs = append(s.Outputs, SnapshotSpace{Syscall: label, Counts: Counts{}})
		}
		for _, pool := range [][]SnapshotSpace{s.Inputs, s.Outputs} {
			for i := range pool {
				sp := &pool[i]
				if bit(2) {
					sp.Counts = nil
				} else if bit(3) {
					sp.Counts = withCount(sp.Counts, label, key)
				}
				if bit(4) {
					sp.Untested = append(sp.Untested, label)
				} else if bit(5) {
					sp.Untested = []string{}
				}
				if bit(6) {
					sp.Extra = Counts{{label, key}}
				}
			}
		}
		if bit(7) {
			if s.OpenCombos == nil {
				s.OpenCombos = &SnapshotCombos{}
			}
			if bit(8) {
				s.OpenCombos.All = map[int]int64{int(key): 1, int(-key): 2, int(key / 10): 3, 2: 4}
			}
			if bit(9) {
				s.OpenCombos.Rdonly = map[int]int64{}
			}
		}
		if bit(10) {
			s.Inputs, s.Outputs = nil, []SnapshotSpace{}
		}
		checkAgainstOracle(t, s)
	})
}
