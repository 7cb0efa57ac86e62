package server

import (
	"fmt"
	"io"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// hitStripes is the lock-striping fanout for the per-syscall hit map.
// Syscall names hash onto stripes, so concurrent sessions folding their hit
// counts rarely collide on the same mutex.
const hitStripes = 8

// hitStripe is one lock shard of the per-syscall hit counters.
type hitStripe struct {
	mu sync.Mutex
	m  map[string]int64 // guarded by mu
}

// Metrics is the daemon's observability state, exported in the Prometheus
// text exposition format by /metrics. Everything on the ingest path is
// contention-free: the scalar counters and the merge histogram are atomics,
// and the per-syscall hit map is striped by name hash so sessions folding
// their hits lock disjoint shards.
type Metrics struct {
	// EventsIngested counts events parsed from ingest streams, before the
	// mount filter.
	EventsIngested atomic.Int64
	// EventsFiltered counts events the mount filter dropped.
	EventsFiltered atomic.Int64
	// BytesRead counts raw stream bytes consumed, including rejected
	// sessions.
	BytesRead atomic.Int64
	// ActiveStreams is the number of ingest sessions currently open.
	ActiveStreams atomic.Int64
	// SessionsTotal counts completed ingest sessions (merged or rejected).
	SessionsTotal atomic.Int64
	// SessionsFailed counts sessions rejected before merging (malformed
	// stream, over-size body, deadline).
	SessionsFailed atomic.Int64

	// mergeCount/mergeNanos are the store-merge latency histogram (count +
	// sum in integer nanoseconds, so the sum is a plain atomic add rather
	// than a float CAS loop).
	mergeCount atomic.Int64
	mergeNanos atomic.Int64

	hits [hitStripes]hitStripe
}

// NewMetrics returns an empty registry.
func NewMetrics() *Metrics {
	m := &Metrics{}
	for i := range m.hits {
		m.hits[i].m = make(map[string]int64)
	}
	return m
}

// ObserveMerge records one store-merge latency.
func (m *Metrics) ObserveMerge(d time.Duration) {
	m.mergeCount.Add(1)
	m.mergeNanos.Add(d.Nanoseconds())
}

// hitStripeFor hashes a syscall name onto its stripe (FNV-1a folded to the
// stripe count).
func hitStripeFor(name string) int {
	const (
		offset64 = 14695981039346656037
		prime64  = 1099511628211
	)
	h := uint64(offset64)
	for i := 0; i < len(name); i++ {
		h ^= uint64(name[i])
		h *= prime64
	}
	return int(h % hitStripes)
}

// AddHits folds one session's per-syscall partition-hit counts into the
// global counters, locking only the stripes its names hash to.
func (m *Metrics) AddHits(h map[string]int64) {
	for name, n := range h {
		st := &m.hits[hitStripeFor(name)]
		st.mu.Lock()
		st.m[name] += n
		st.mu.Unlock()
	}
}

// snapshotHits folds the hit stripes into one map for the exposition.
func (m *Metrics) snapshotHits() map[string]int64 {
	out := make(map[string]int64)
	for i := range m.hits {
		st := &m.hits[i]
		st.mu.Lock()
		for name, n := range st.m {
			out[name] += n
		}
		st.mu.Unlock()
	}
	return out
}

// promGauge distinguishes gauges from counters in the exposition.
type promMetric struct {
	name, help, typ string
	value           string
}

// WriteProm renders the registry in the Prometheus text format, in a
// deterministic order so scrapes and tests are stable.
func (m *Metrics) WriteProm(w io.Writer, analyzed, skipped, sessions int64) error {
	mergeCount := m.mergeCount.Load()
	mergeSeconds := float64(m.mergeNanos.Load()) / 1e9
	hits := m.snapshotHits()

	metrics := []promMetric{
		{"iocovd_events_ingested_total", "Events parsed from ingest streams.", "counter",
			fmt.Sprintf("%d", m.EventsIngested.Load())},
		{"iocovd_events_filtered_total", "Events dropped by the mount filter.", "counter",
			fmt.Sprintf("%d", m.EventsFiltered.Load())},
		{"iocovd_events_analyzed_total", "In-scope events analyzed (including restored checkpoint).", "counter",
			fmt.Sprintf("%d", analyzed)},
		{"iocovd_events_skipped_total", "Out-of-scope events skipped (including restored checkpoint).", "counter",
			fmt.Sprintf("%d", skipped)},
		{"iocovd_bytes_read_total", "Raw ingest stream bytes consumed.", "counter",
			fmt.Sprintf("%d", m.BytesRead.Load())},
		{"iocovd_active_streams", "Ingest sessions currently open.", "gauge",
			fmt.Sprintf("%d", m.ActiveStreams.Load())},
		{"iocovd_sessions_total", "Completed ingest sessions.", "counter",
			fmt.Sprintf("%d", m.SessionsTotal.Load())},
		{"iocovd_sessions_failed_total", "Sessions rejected before merging.", "counter",
			fmt.Sprintf("%d", m.SessionsFailed.Load())},
		{"iocovd_sessions_merged_total", "Sessions merged into the global store.", "counter",
			fmt.Sprintf("%d", sessions)},
		{"iocovd_merge_latency_seconds_sum", "Total store-merge latency.", "counter",
			fmt.Sprintf("%g", mergeSeconds)},
		{"iocovd_merge_latency_seconds_count", "Number of store merges.", "counter",
			fmt.Sprintf("%d", mergeCount)},
	}
	for _, pm := range metrics {
		if _, err := fmt.Fprintf(w, "# HELP %s %s\n# TYPE %s %s\n%s %s\n",
			pm.name, pm.help, pm.name, pm.typ, pm.name, pm.value); err != nil {
			return err
		}
	}

	names := make([]string, 0, len(hits))
	for name := range hits {
		names = append(names, name)
	}
	sort.Strings(names)
	if _, err := fmt.Fprintf(w,
		"# HELP iocovd_syscall_partition_hits_total Partition-counter increments per merged syscall.\n"+
			"# TYPE iocovd_syscall_partition_hits_total counter\n"); err != nil {
		return err
	}
	for _, name := range names {
		if _, err := fmt.Fprintf(w, "iocovd_syscall_partition_hits_total{syscall=%q} %d\n",
			name, hits[name]); err != nil {
			return err
		}
	}
	return nil
}
