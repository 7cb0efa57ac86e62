// Package server implements iocovd, the networked coverage-aggregation
// daemon: the long-lived service form of the paper's batch pipeline. Many
// tracers (xfstests/crashmonkey shards, remote harnesses) stream
// dictionary-compressed binary traces to POST /ingest; each connection runs
// through its own Filter→Analyzer pipeline and is folded into a global
// store with the byte-identical Analyzer.Merge contract, so the aggregate
// snapshot equals what one serial analyzer would have produced over the
// union of all streams.
//
// Endpoints:
//
//	POST /ingest   binary trace stream (one session per request)
//	GET  /report   global coverage snapshot as JSON
//	GET  /tcd      Test Coverage Deviation for one space, as JSON
//	GET  /metrics  Prometheus text exposition
//	GET  /healthz  liveness + session counts
//
// Robustness is part of the design: ingest sessions are bounded (stream
// semaphore for backpressure, per-session read deadline, optional body-size
// cap, the hardened binary parser's per-string/per-event budgets), a
// malformed stream poisons only its own session, and the store checkpoints
// its snapshot to disk so a restarted daemon resumes from the last
// checkpoint with a byte-identical /report.
package server

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"os"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"iocov/internal/coverage"
	iometrics "iocov/internal/metrics"
	"iocov/internal/trace"
)

// DefaultMountPattern is the trace-filter regexp used when Config leaves
// MountPattern empty: the /mnt/test mount both simulated suites use
// (harness.MountPattern; duplicated here so the server does not depend on
// the suite harness).
const DefaultMountPattern = `^/mnt/test(/|$)`

// Config configures a Server. The zero value is usable: default mount
// pattern, paper-default analyzer options, 64 concurrent streams.
type Config struct {
	// MountPattern is the per-session trace-filter regexp ("" means
	// DefaultMountPattern).
	MountPattern string
	// Options are the analyzer options every session and the global store
	// share. Zero Options are replaced by coverage.DefaultOptions().
	Options *coverage.Options
	// MaxStreams bounds concurrent ingest sessions; excess requests get
	// 503 (backpressure toward the shards). <= 0 means 64.
	MaxStreams int
	// IngestTimeout is the per-session read deadline; 0 means none.
	IngestTimeout time.Duration
	// MaxBodyBytes caps one session's stream; 0 means unlimited.
	MaxBodyBytes int64
	// CheckpointPath is where Checkpoint persists the snapshot ("" →
	// checkpointing disabled).
	CheckpointPath string
	// SnapshotNumeric truncates numeric domains in reports (0 means the
	// default 34-bucket window).
	SnapshotNumeric int
}

// Server is the aggregation daemon: an http.Handler plus the store and
// metrics behind it.
type Server struct {
	cfg     Config
	opts    coverage.Options
	store   *Store
	metrics *Metrics
	mux     *http.ServeMux
	sem     chan struct{}
	seq     atomic.Uint64
	started time.Time
	// filterProto holds the compiled mount pattern; sessions clone fresh
	// per-stream filter state from it instead of recompiling the regexp.
	filterProto *trace.Filter
	// sessPool recycles per-stream pipeline state (analyzer, batch
	// dispatcher, decoder, filter) across ingest requests; see ingestSession.
	sessPool sync.Pool
}

// ingestSession is the per-stream pipeline state handleIngest draws from a
// sync.Pool: the analyzer dominates a session's allocation cost (counter
// maps, dense slices) and the decoder owns the read buffer, so recycling
// them turns per-request setup into a handful of Reset calls. Every
// component's Reset restores fresh-construction semantics — proven by the
// coverage and trace reset tests — so a recycled session is observationally
// a new one, even when its previous life ended mid-stream on a malformed
// input.
type ingestSession struct {
	an     *coverage.Analyzer
	batch  *coverage.Batch
	dec    *trace.BatchDecoder
	filter *trace.Filter
}

// getSession returns a session pipeline reading from r, recycled when the
// pool has one.
func (s *Server) getSession(r io.Reader) *ingestSession {
	if sess, ok := s.sessPool.Get().(*ingestSession); ok {
		sess.dec.Reset(r)
		return sess
	}
	an := coverage.NewAnalyzer(s.opts)
	return &ingestSession{
		an:     an,
		batch:  an.NewBatch(),
		dec:    trace.NewBatchDecoder(r),
		filter: s.filterProto.Fresh(),
	}
}

// putSession wipes a session's state and parks it for the next stream. It
// is safe on poisoned sessions: Reset discards the partial decode and
// partial counts along with everything else.
func (s *Server) putSession(sess *ingestSession) {
	sess.an.Reset()
	sess.batch.Reset()
	sess.filter.Reset()
	sess.dec.Reset(nil) // drop the request-body reference
	s.sessPool.Put(sess)
}

// New builds a Server, restoring the checkpoint file if one exists.
func New(cfg Config) (*Server, error) {
	if cfg.MountPattern == "" {
		cfg.MountPattern = DefaultMountPattern
	}
	// Compile the pattern once up front; sessions clone their own stateful
	// filter from the prototype per connection.
	proto, err := trace.NewFilter(cfg.MountPattern)
	if err != nil {
		return nil, fmt.Errorf("server: bad mount pattern: %w", err)
	}
	if cfg.MaxStreams <= 0 {
		cfg.MaxStreams = 64
	}
	opts := coverage.DefaultOptions()
	if cfg.Options != nil {
		opts = *cfg.Options
	}
	s := &Server{
		cfg:         cfg,
		opts:        opts,
		store:       NewStore(opts, cfg.SnapshotNumeric),
		metrics:     NewMetrics(),
		mux:         http.NewServeMux(),
		sem:         make(chan struct{}, cfg.MaxStreams),
		started:     time.Now(),
		filterProto: proto,
	}
	if cfg.CheckpointPath != "" {
		if err := s.store.Restore(cfg.CheckpointPath); err != nil {
			return nil, err
		}
	}
	s.mux.HandleFunc("/ingest", s.handleIngest)
	s.mux.HandleFunc("/report", s.handleReport)
	s.mux.HandleFunc("/tcd", s.handleTCD)
	s.mux.HandleFunc("/metrics", s.handleMetrics)
	s.mux.HandleFunc("/healthz", s.handleHealthz)
	return s, nil
}

// Handler returns the daemon's HTTP handler.
func (s *Server) Handler() http.Handler { return s.mux }

// Store exposes the global store (tests, checkpoint wiring).
func (s *Server) Store() *Store { return s.store }

// Metrics exposes the metrics registry.
func (s *Server) Metrics() *Metrics { return s.metrics }

// Checkpoint persists the current snapshot when checkpointing is
// configured.
func (s *Server) Checkpoint() error {
	if s.cfg.CheckpointPath == "" {
		return nil
	}
	return s.store.WriteCheckpoint(s.cfg.CheckpointPath)
}

// RunCheckpointLoop checkpoints every interval until ctx is done, then
// writes one final checkpoint — the graceful-shutdown hook. Errors are
// reported through errf (nil means stderr-style default of discarding).
func (s *Server) RunCheckpointLoop(ctx context.Context, every time.Duration, errf func(error)) {
	if errf == nil {
		errf = func(error) {}
	}
	if s.cfg.CheckpointPath == "" {
		<-ctx.Done()
		return
	}
	if every > 0 {
		t := time.NewTicker(every)
		defer t.Stop()
		for {
			select {
			case <-ctx.Done():
				if err := s.Checkpoint(); err != nil {
					errf(err)
				}
				return
			case <-t.C:
				if err := s.Checkpoint(); err != nil {
					errf(err)
				}
			}
		}
	}
	<-ctx.Done()
	if err := s.Checkpoint(); err != nil {
		errf(err)
	}
}

// IngestResult is the JSON body a successful /ingest returns; the remote
// harness decodes it to report per-shard totals.
type IngestResult struct {
	// Session is the stream's id (client-supplied X-Iocov-Session header,
	// or server-assigned).
	Session string `json:"session"`
	// Events is the number of events parsed from the stream.
	Events int64 `json:"events"`
	// Kept and Dropped are the mount filter's verdict counts.
	Kept    int64 `json:"kept"`
	Dropped int64 `json:"dropped"`
	// Analyzed and Skipped are the analyzer's in-scope/out-of-scope
	// counts over the kept events.
	Analyzed int64 `json:"analyzed"`
	Skipped  int64 `json:"skipped"`
}

// TCDResult is the JSON body /tcd returns.
type TCDResult struct {
	Syscall     string  `json:"syscall"`
	Arg         string  `json:"arg,omitempty"`
	Target      int64   `json:"target"`
	TCD         float64 `json:"tcd"`
	Domain      int     `json:"domain"`
	Covered     int     `json:"covered"`
	Untested    int     `json:"untested"`
	UnderTested int     `json:"under_tested"`
	Adequate    int     `json:"adequate"`
	OverTested  int     `json:"over_tested"`
}

// httpError writes an error response with an explicit status code. Every
// handler error path funnels through it (or WriteHeader directly); the
// handler tests pin each path's status (TestHealthzAndMethods,
// TestTCDEndpoint, TestIngestBackpressure, TestIngestBodyTooLarge,
// TestIngestEmptyBodyRejected, TestIngestFormatNegotiation,
// TestIngestErrorStatus).
func httpError(w http.ResponseWriter, code int, format string, args ...any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	_ = json.NewEncoder(w).Encode(map[string]string{"error": fmt.Sprintf(format, args...)})
}

// writeJSON writes a 200 JSON response.
func writeJSON(w http.ResponseWriter, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(http.StatusOK)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	_ = enc.Encode(v)
}

// countingReader counts consumed stream bytes for the metrics.
type countingReader struct {
	r io.Reader
	n int64
}

func (c *countingReader) Read(p []byte) (int, error) {
	n, err := c.r.Read(p)
	c.n += int64(n)
	return n, err
}

// handleIngest runs one streaming session: binary events are batch-decoded
// as they arrive (TCP flow control is the backpressure toward the sender),
// filtered, analyzed into a session-local analyzer, and merged into the
// global store only when the stream ends cleanly. Any decode failure
// rejects the whole session and merges nothing, so a poisoned stream never
// contaminates the aggregate.
//
// Decoding goes through trace.BatchDecoder + coverage.Batch: one reused
// event, no per-event allocation, dictionary-ordinal dispatch into the
// analyzer's dense counters. The stream's magic is the only format field
// the daemon validates.
func (s *Server) handleIngest(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		httpError(w, http.StatusMethodNotAllowed, "ingest requires POST")
		return
	}
	select {
	case s.sem <- struct{}{}:
	default:
		httpError(w, http.StatusServiceUnavailable,
			"ingest capacity (%d streams) exhausted; retry with backoff", s.cfg.MaxStreams)
		return
	}
	defer func() { <-s.sem }()
	s.metrics.ActiveStreams.Add(1)
	defer s.metrics.ActiveStreams.Add(-1)
	defer s.metrics.SessionsTotal.Add(1)

	session := r.Header.Get("X-Iocov-Session")
	if session == "" {
		session = fmt.Sprintf("s%06d", s.seq.Add(1))
	}
	if t := s.cfg.IngestTimeout; t > 0 {
		// Not every transport supports deadlines (httptest recorders);
		// a stream that cannot be bounded is still served.
		_ = http.NewResponseController(w).SetReadDeadline(time.Now().Add(t))
	}
	var body io.Reader = r.Body
	if s.cfg.MaxBodyBytes > 0 {
		body = http.MaxBytesReader(w, r.Body, s.cfg.MaxBodyBytes)
	}
	cr := &countingReader{r: body}
	defer func() { s.metrics.BytesRead.Add(cr.n) }()

	sess := s.getSession(cr)
	defer s.putSession(sess)
	filter, an, batch, dec := sess.filter, sess.an, sess.batch, sess.dec
	if err := dec.ReadHeader(); err != nil {
		s.metrics.SessionsFailed.Add(1)
		httpError(w, ingestErrorStatus(err), "session %s rejected: %v", session, err)
		return
	}
	var events int64
	var ev trace.Event
	for {
		nameID, err := dec.Next(&ev)
		if err == io.EOF {
			break
		}
		if err != nil {
			s.metrics.SessionsFailed.Add(1)
			s.metrics.EventsIngested.Add(events)
			httpError(w, ingestErrorStatus(err), "session %s rejected after %d events: %v",
				session, events, err)
			return
		}
		events++
		if filter.KeepRef(&ev) {
			batch.Add(&ev, nameID)
		}
	}
	_, dropped := filter.Stats()
	s.metrics.EventsIngested.Add(events)
	s.metrics.EventsFiltered.Add(dropped)

	hits := an.PartitionHits()
	start := time.Now()
	if err := s.store.MergeSession(an); err != nil {
		s.metrics.SessionsFailed.Add(1)
		httpError(w, http.StatusInternalServerError, "session %s merge: %v", session, err)
		return
	}
	s.metrics.ObserveMerge(time.Since(start))
	s.metrics.AddHits(hits)

	kept, _ := filter.Stats()
	writeJSON(w, IngestResult{
		Session:  session,
		Events:   events,
		Kept:     kept,
		Dropped:  dropped,
		Analyzed: an.Analyzed(),
		Skipped:  an.Skipped(),
	})
}

// ingestErrorStatus maps a stream failure to its HTTP status: structural
// and truncation failures are the client's fault (400), an over-size body
// is 413, a read deadline is 408.
func ingestErrorStatus(err error) int {
	var tooBig *http.MaxBytesError
	switch {
	case errors.As(err, &tooBig):
		return http.StatusRequestEntityTooLarge
	case errors.Is(err, os.ErrDeadlineExceeded):
		return http.StatusRequestTimeout
	case errors.Is(err, trace.ErrMalformed), errors.Is(err, io.ErrUnexpectedEOF):
		return http.StatusBadRequest
	default:
		return http.StatusBadRequest
	}
}

// handleReport serves the global coverage snapshot.
func (s *Server) handleReport(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		httpError(w, http.StatusMethodNotAllowed, "report requires GET")
		return
	}
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(http.StatusOK)
	_ = s.store.Report().WriteJSON(w)
}

// handleTCD serves the Test Coverage Deviation of one coverage space
// against a uniform target, computed from the global snapshot (so it
// includes any restored checkpoint).
func (s *Server) handleTCD(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		httpError(w, http.StatusMethodNotAllowed, "tcd requires GET")
		return
	}
	q := r.URL.Query()
	syscall := q.Get("syscall")
	if syscall == "" {
		syscall = "open"
	}
	arg := "flags"
	if q.Has("arg") {
		arg = q.Get("arg") // explicit empty selects the output space
	}
	var target int64 = 1000
	if t := q.Get("target"); t != "" {
		n, err := parsePositive(t)
		if err != nil {
			httpError(w, http.StatusBadRequest, "bad target %q: %v", t, err)
			return
		}
		target = n
	}
	space := s.store.Report().Space(syscall, arg)
	if space == nil {
		httpError(w, http.StatusNotFound, "no coverage recorded for %s.%s", syscall, arg)
		return
	}
	freqs := make([]int64, 0, len(space.Counts)+len(space.Untested))
	for _, r := range space.Counts {
		freqs = append(freqs, r.Count)
	}
	for range space.Untested {
		freqs = append(freqs, 0)
	}
	// The squared deviations are summed in sorted order, so the float
	// result depends on the frequencies alone, not on the order of their
	// labels.
	slices.Sort(freqs)
	counts := iometrics.ClassifyAll(freqs, target, 10)
	writeJSON(w, TCDResult{
		Syscall:     syscall,
		Arg:         arg,
		Target:      target,
		TCD:         iometrics.UniformTCD(freqs, target),
		Domain:      space.Domain,
		Covered:     space.Covered,
		Untested:    counts[iometrics.Untested],
		UnderTested: counts[iometrics.UnderTested],
		Adequate:    counts[iometrics.Adequate],
		OverTested:  counts[iometrics.OverTested],
	})
}

// parsePositive parses a positive decimal int64.
func parsePositive(s string) (int64, error) {
	var n int64
	for _, c := range s {
		if c < '0' || c > '9' {
			return 0, fmt.Errorf("not a positive integer")
		}
		d := int64(c - '0')
		if n > (1<<63-1-d)/10 {
			return 0, fmt.Errorf("overflows int64")
		}
		n = n*10 + d
	}
	if s == "" || n == 0 {
		return 0, fmt.Errorf("must be >= 1")
	}
	return n, nil
}

// handleMetrics serves the Prometheus text exposition.
func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		httpError(w, http.StatusMethodNotAllowed, "metrics requires GET")
		return
	}
	analyzed, skipped := s.store.Totals()
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	w.WriteHeader(http.StatusOK)
	_ = s.metrics.WriteProm(w, analyzed, skipped, s.store.Sessions())
}

// handleHealthz serves liveness.
func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		httpError(w, http.StatusMethodNotAllowed, "healthz requires GET")
		return
	}
	analyzed, _ := s.store.Totals()
	writeJSON(w, map[string]any{
		"status":         "ok",
		"uptime_seconds": int64(time.Since(s.started).Seconds()),
		"sessions":       s.store.Sessions(),
		"analyzed":       analyzed,
	})
}
