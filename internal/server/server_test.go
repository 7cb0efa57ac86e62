package server

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"iocov/internal/coverage"
	"iocov/internal/sys"
	"iocov/internal/trace"
)

// streamEvents builds the deterministic event sequence for stream i: a mix
// of in-mount opens/writes/reads, out-of-mount traffic the filter must
// drop, a failed open, and an unknown syscall the analyzer must skip.
func streamEvents(i int) []trace.Event {
	flags := []int64{
		0,
		int64(sys.O_WRONLY | sys.O_CREAT),
		int64(sys.O_RDWR | sys.O_CREAT | sys.O_TRUNC),
		int64(sys.O_WRONLY | sys.O_APPEND),
	}
	path := fmt.Sprintf("/mnt/test/f%d", i)
	evs := []trace.Event{
		{Name: "open", PID: 1 + i, Ret: 3,
			Strs: map[string]string{"filename": path},
			Args: map[string]int64{"flags": flags[i%len(flags)], "mode": 0o644}},
		{Name: "write", PID: 1 + i, Ret: 1 << (i % 12),
			Args: map[string]int64{"fd": 3, "count": 1 << (i % 12)}},
		{Name: "read", PID: 1 + i, Ret: 0,
			Args: map[string]int64{"fd": 3, "count": 4096}},
		// Out-of-mount open and a write through its descriptor: both dropped.
		{Name: "open", PID: 1 + i, Ret: 4,
			Strs: map[string]string{"filename": "/etc/passwd"},
			Args: map[string]int64{"flags": 0, "mode": 0}},
		{Name: "write", PID: 1 + i, Ret: 10,
			Args: map[string]int64{"fd": 4, "count": 10}},
		{Name: "close", PID: 1 + i, Ret: 0,
			Args: map[string]int64{"fd": 3}},
		// Failed open stays in the mount's input+output spaces.
		{Name: "open", PID: 1 + i, Ret: -int64(sys.ENOENT), Err: sys.ENOENT,
			Strs: map[string]string{"filename": "/mnt/test/missing"},
			Args: map[string]int64{"flags": int64(sys.O_RDWR), "mode": 0}},
		// Kept by the path filter but outside the analyzer's spec: skipped.
		{Name: "bogus_syscall", PID: 1 + i, Ret: 0,
			Strs: map[string]string{"pathname": "/mnt/test/x"}},
	}
	return evs
}

// encodeStream serializes events in the binary trace format.
func encodeStream(t *testing.T, evs []trace.Event) []byte {
	t.Helper()
	var buf bytes.Buffer
	w := trace.NewBinaryWriter(&buf)
	for _, ev := range evs {
		w.Emit(ev)
	}
	if err := w.Flush(); err != nil {
		t.Fatalf("Flush: %v", err)
	}
	return buf.Bytes()
}

// retiredV1 relabels a stream with the retired format-v1 magic.
func retiredV1(stream []byte) []byte {
	return append([]byte("IOCV\x01"), stream[len("IOCV\x02"):]...)
}

// serialSnapshot runs the given streams through per-stream filter+analyzer
// pipelines merged into one analyzer — the reference the daemon must match
// byte-for-byte. Each stream is round-tripped through the binary codec
// first so the reference sees exactly the events the daemon's parser
// reconstructs (Path derived from string args, canonical field set).
func serialSnapshot(t *testing.T, streams [][]trace.Event) []byte {
	t.Helper()
	global := coverage.NewAnalyzer(coverage.DefaultOptions())
	for _, evs := range streams {
		decoded, err := trace.ParseAllBinary(bytes.NewReader(encodeStream(t, evs)))
		if err != nil {
			t.Fatalf("round-trip: %v", err)
		}
		f, err := trace.NewFilter(DefaultMountPattern)
		if err != nil {
			t.Fatalf("NewFilter: %v", err)
		}
		an := coverage.NewAnalyzer(coverage.DefaultOptions())
		for _, ev := range decoded {
			if f.Keep(ev) {
				an.Add(ev)
			}
		}
		if err := global.Merge(an); err != nil {
			t.Fatalf("Merge: %v", err)
		}
	}
	var buf bytes.Buffer
	if err := global.Snapshot(0).WriteJSON(&buf); err != nil {
		t.Fatalf("WriteJSON: %v", err)
	}
	return buf.Bytes()
}

func newTestServer(t *testing.T, cfg Config) (*Server, *httptest.Server) {
	t.Helper()
	s, err := New(cfg)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(ts.Close)
	return s, ts
}

func ingest(t *testing.T, url string, session string, body []byte) (*http.Response, IngestResult) {
	t.Helper()
	req, err := http.NewRequest(http.MethodPost, url+"/ingest", bytes.NewReader(body))
	if err != nil {
		t.Fatalf("NewRequest: %v", err)
	}
	if session != "" {
		req.Header.Set("X-Iocov-Session", session)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatalf("POST /ingest: %v", err)
	}
	defer resp.Body.Close()
	var res IngestResult
	if resp.StatusCode == http.StatusOK {
		if err := json.NewDecoder(resp.Body).Decode(&res); err != nil {
			t.Fatalf("decode IngestResult: %v", err)
		}
	} else {
		_, _ = io.Copy(io.Discard, resp.Body)
	}
	return resp, res
}

func get(t *testing.T, url string) (int, []byte) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatalf("GET %s: %v", url, err)
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatalf("read %s: %v", url, err)
	}
	return resp.StatusCode, b
}

// TestConcurrentIngestMatchesSerial is the tentpole contract: N concurrent
// streams through the daemon must produce a /report byte-identical to one
// serial analyzer over the same per-stream pipelines. Run with -race this
// also exercises the store's locking with 12 simultaneous sessions.
func TestConcurrentIngestMatchesSerial(t *testing.T) {
	const nStreams = 12
	s, ts := newTestServer(t, Config{})

	streams := make([][]trace.Event, nStreams)
	for i := range streams {
		streams[i] = streamEvents(i)
	}

	var wg sync.WaitGroup
	errs := make(chan error, nStreams)
	for i := 0; i < nStreams; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			body := encodeStream(t, streams[i])
			req, err := http.NewRequest(http.MethodPost, ts.URL+"/ingest", bytes.NewReader(body))
			if err != nil {
				errs <- err
				return
			}
			resp, err := http.DefaultClient.Do(req)
			if err != nil {
				errs <- err
				return
			}
			defer resp.Body.Close()
			var res IngestResult
			if err := json.NewDecoder(resp.Body).Decode(&res); err != nil {
				errs <- fmt.Errorf("stream %d: decode: %v", i, err)
				return
			}
			if resp.StatusCode != http.StatusOK {
				errs <- fmt.Errorf("stream %d: status %d", i, resp.StatusCode)
				return
			}
			if res.Events != int64(len(streams[i])) {
				errs <- fmt.Errorf("stream %d: events %d, want %d", i, res.Events, len(streams[i]))
				return
			}
			if res.Kept+res.Dropped != res.Events {
				errs <- fmt.Errorf("stream %d: kept %d + dropped %d != events %d",
					i, res.Kept, res.Dropped, res.Events)
			}
			if res.Skipped != 1 { // the bogus_syscall
				errs <- fmt.Errorf("stream %d: skipped %d, want 1", i, res.Skipped)
			}
		}(i)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}

	code, got := get(t, ts.URL+"/report")
	if code != http.StatusOK {
		t.Fatalf("/report status %d", code)
	}
	want := serialSnapshot(t, streams)
	if !bytes.Equal(got, want) {
		t.Errorf("concurrent /report != serial snapshot\n got: %.400s\nwant: %.400s", got, want)
	}
	if n := s.Store().Sessions(); n != nStreams {
		t.Errorf("sessions = %d, want %d", n, nStreams)
	}
}

// TestCheckpointRestartByteIdentical is the acceptance criterion: kill the
// daemon after a checkpoint, start a fresh one on the same checkpoint file,
// and /report must serve the pre-kill snapshot byte-for-byte.
func TestCheckpointRestartByteIdentical(t *testing.T) {
	dir := t.TempDir()
	ckpt := filepath.Join(dir, "iocovd.ckpt.json")

	streams := [][]trace.Event{streamEvents(0), streamEvents(1), streamEvents(2)}
	s1, ts1 := newTestServer(t, Config{CheckpointPath: ckpt})
	for i, evs := range streams {
		resp, _ := ingest(t, ts1.URL, fmt.Sprintf("pre-kill-%d", i), encodeStream(t, evs))
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("ingest %d: status %d", i, resp.StatusCode)
		}
	}
	if err := s1.Checkpoint(); err != nil {
		t.Fatalf("Checkpoint: %v", err)
	}
	_, preKill := get(t, ts1.URL+"/report")
	ts1.Close() // the "kill"

	s2, ts2 := newTestServer(t, Config{CheckpointPath: ckpt})
	code, postRestart := get(t, ts2.URL+"/report")
	if code != http.StatusOK {
		t.Fatalf("/report after restart: status %d", code)
	}
	if !bytes.Equal(postRestart, preKill) {
		t.Errorf("post-restart /report not byte-identical to pre-kill snapshot\n got: %.400s\nwant: %.400s",
			postRestart, preKill)
	}

	// Restored totals are visible even though no session merged yet.
	analyzed, skipped := s2.Store().Totals()
	if analyzed == 0 || skipped == 0 {
		t.Errorf("restored totals analyzed=%d skipped=%d, want both > 0", analyzed, skipped)
	}

	// And ingesting into the restarted daemon keeps aggregating on top of
	// the checkpoint: the result must match a serial run over all streams.
	extra := streamEvents(3)
	if resp, _ := ingest(t, ts2.URL, "post-restart", encodeStream(t, extra)); resp.StatusCode != http.StatusOK {
		t.Fatalf("post-restart ingest: status %d", resp.StatusCode)
	}
	_, got := get(t, ts2.URL+"/report")
	want := serialSnapshot(t, append(streams, extra))
	if !bytes.Equal(got, want) {
		t.Errorf("post-restart aggregate != serial over all streams\n got: %.400s\nwant: %.400s", got, want)
	}
}

// TestMalformedStreamPoisonsOnlySession: a corrupt stream is rejected with
// 400 and contributes nothing, while sessions before and after it merge
// normally.
func TestMalformedStreamPoisonsOnlySession(t *testing.T) {
	s, ts := newTestServer(t, Config{})

	good := streamEvents(0)
	if resp, _ := ingest(t, ts.URL, "good-1", encodeStream(t, good)); resp.StatusCode != http.StatusOK {
		t.Fatalf("good ingest: status %d", resp.StatusCode)
	}

	// Valid header + one valid event, then a dangling dictionary reference.
	poison := encodeStream(t, streamEvents(1))
	poison = append(poison, 0x02) // truncated/garbage trailing event
	resp, _ := ingest(t, ts.URL, "poison", poison)
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("poison ingest: status %d, want 400", resp.StatusCode)
	}

	good2 := streamEvents(2)
	if resp, _ := ingest(t, ts.URL, "good-2", encodeStream(t, good2)); resp.StatusCode != http.StatusOK {
		t.Fatalf("good2 ingest: status %d", resp.StatusCode)
	}

	_, got := get(t, ts.URL+"/report")
	want := serialSnapshot(t, [][]trace.Event{good, good2})
	if !bytes.Equal(got, want) {
		t.Errorf("poisoned session leaked into /report\n got: %.400s\nwant: %.400s", got, want)
	}
	if n := s.Metrics().SessionsFailed.Load(); n != 1 {
		t.Errorf("SessionsFailed = %d, want 1", n)
	}
	if n := s.Store().Sessions(); n != 2 {
		t.Errorf("merged sessions = %d, want 2", n)
	}
}

// TestIngestEmptyBodyRejected: a zero-byte stream is NOT a valid empty
// trace — the header is mandatory, so the session is rejected with 400 and
// counted as failed. (Before the fix the decoder treated the missing header
// as a clean EOF and the daemon merged an empty session.)
func TestIngestEmptyBodyRejected(t *testing.T) {
	s, ts := newTestServer(t, Config{})
	resp, _ := ingest(t, ts.URL, "empty", nil)
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("empty body: status %d, want 400", resp.StatusCode)
	}
	if n := s.Metrics().SessionsFailed.Load(); n != 1 {
		t.Errorf("SessionsFailed = %d, want 1", n)
	}
	if n := s.Store().Sessions(); n != 0 {
		t.Errorf("merged sessions = %d, want 0", n)
	}
}

// TestIngestFormatNegotiation pins the format rules: the stream's magic
// alone decides. Format declarations in request headers are ignored, the
// retired v1 magic is rejected with a 400 that says so, and so is an
// unknown version.
func TestIngestFormatNegotiation(t *testing.T) {
	s, ts := newTestServer(t, Config{})
	v2 := encodeStream(t, streamEvents(0))
	unknown := append([]byte("IOCV\x09"), v2[len("IOCV\x02"):]...)

	cases := []struct {
		name    string
		body    []byte
		headers map[string]string
		want    int
		msg     string
	}{
		{"v2", v2, nil, http.StatusOK, ""},
		{"content-type-v-ignored", v2, map[string]string{"Content-Type": "application/octet-stream; v=1"}, http.StatusOK, ""},
		{"v1-retired", retiredV1(v2), nil, http.StatusBadRequest, "version 1 is retired"},
		{"unknown-version", unknown, nil, http.StatusBadRequest, "unsupported binary format version 9"},
	}
	for _, c := range cases {
		req, err := http.NewRequest(http.MethodPost, ts.URL+"/ingest", bytes.NewReader(c.body))
		if err != nil {
			t.Fatal(err)
		}
		for k, v := range c.headers {
			req.Header.Set(k, v)
		}
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatalf("%s: POST /ingest: %v", c.name, err)
		}
		body, err := io.ReadAll(resp.Body)
		resp.Body.Close()
		if err != nil {
			t.Fatalf("%s: read body: %v", c.name, err)
		}
		if resp.StatusCode != c.want {
			t.Errorf("%s: status %d, want %d", c.name, resp.StatusCode, c.want)
		}
		if !strings.Contains(string(body), c.msg) {
			t.Errorf("%s: response %q does not mention %q", c.name, body, c.msg)
		}
	}
	if got := s.Store().Sessions(); got != 2 {
		t.Errorf("merged sessions = %d, want 2", got)
	}
}

// TestIngestPIDOverflowRejected: a wire pid >= 2^63 (which would wrap
// negative through int) rejects the session as malformed.
func TestIngestPIDOverflowRejected(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	body := encodeStream(t, nil) // just the header
	body = append(body, 2)       // seq delta = 1
	// pid = 2^63 as a uvarint.
	body = append(body, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x01)
	resp, _ := ingest(t, ts.URL, "bigpid", body)
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("pid 2^63: status %d, want 400", resp.StatusCode)
	}
}

// TestIngestBodyTooLarge: MaxBodyBytes rejects over-size streams with 413.
func TestIngestBodyTooLarge(t *testing.T) {
	_, ts := newTestServer(t, Config{MaxBodyBytes: 64})
	var evs []trace.Event
	for i := 0; i < 50; i++ {
		evs = append(evs, streamEvents(i)...)
	}
	resp, _ := ingest(t, ts.URL, "", encodeStream(t, evs))
	if resp.StatusCode != http.StatusRequestEntityTooLarge {
		t.Errorf("status %d, want 413", resp.StatusCode)
	}
}

// TestIngestBackpressure: when every stream slot is busy the daemon sheds
// load with 503 instead of queueing unbounded work.
func TestIngestBackpressure(t *testing.T) {
	s, ts := newTestServer(t, Config{MaxStreams: 1})
	s.sem <- struct{}{} // occupy the only slot
	resp, _ := ingest(t, ts.URL, "", encodeStream(t, streamEvents(0)))
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Errorf("status %d, want 503", resp.StatusCode)
	}
	<-s.sem
	if resp, _ := ingest(t, ts.URL, "", encodeStream(t, streamEvents(0))); resp.StatusCode != http.StatusOK {
		t.Errorf("after release: status %d, want 200", resp.StatusCode)
	}
}

// TestIngestErrorStatus pins the error → HTTP status classification.
func TestIngestErrorStatus(t *testing.T) {
	cases := []struct {
		err  error
		want int
	}{
		{&http.MaxBytesError{Limit: 10}, http.StatusRequestEntityTooLarge},
		{fmt.Errorf("read: %w", os.ErrDeadlineExceeded), http.StatusRequestTimeout},
		{fmt.Errorf("bad dict: %w", trace.ErrMalformed), http.StatusBadRequest},
		{io.ErrUnexpectedEOF, http.StatusBadRequest},
		{errors.New("anything else"), http.StatusBadRequest},
	}
	for _, c := range cases {
		if got := ingestErrorStatus(c.err); got != c.want {
			t.Errorf("ingestErrorStatus(%v) = %d, want %d", c.err, got, c.want)
		}
	}
}

// TestMetricsEndpoint checks the Prometheus exposition reflects ingests.
func TestMetricsEndpoint(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	evs := streamEvents(0)
	if resp, _ := ingest(t, ts.URL, "m", encodeStream(t, evs)); resp.StatusCode != http.StatusOK {
		t.Fatalf("ingest: status %d", resp.StatusCode)
	}
	code, body := get(t, ts.URL+"/metrics")
	if code != http.StatusOK {
		t.Fatalf("/metrics status %d", code)
	}
	text := string(body)
	for _, want := range []string{
		fmt.Sprintf("iocovd_events_ingested_total %d", len(evs)),
		"iocovd_events_filtered_total 2",
		"iocovd_sessions_merged_total 1",
		"iocovd_active_streams 0",
		"iocovd_merge_latency_seconds_count 1",
		`iocovd_syscall_partition_hits_total{syscall="open"}`,
		`iocovd_syscall_partition_hits_total{syscall="write"}`,
	} {
		if !strings.Contains(text, want) {
			t.Errorf("/metrics missing %q in:\n%s", want, text)
		}
	}
}

// TestTCDEndpoint checks the deviation endpoint against the global store.
func TestTCDEndpoint(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	if resp, _ := ingest(t, ts.URL, "", encodeStream(t, streamEvents(0))); resp.StatusCode != http.StatusOK {
		t.Fatalf("ingest: status %d", resp.StatusCode)
	}

	code, body := get(t, ts.URL+"/tcd?syscall=open&arg=flags&target=100")
	if code != http.StatusOK {
		t.Fatalf("/tcd status %d: %s", code, body)
	}
	var res TCDResult
	if err := json.Unmarshal(body, &res); err != nil {
		t.Fatalf("decode: %v", err)
	}
	if res.Syscall != "open" || res.Arg != "flags" || res.Target != 100 {
		t.Errorf("echo fields wrong: %+v", res)
	}
	if res.Domain == 0 || res.TCD <= 0 {
		t.Errorf("degenerate TCD result: %+v", res)
	}
	if res.Untested+res.UnderTested+res.Adequate+res.OverTested != res.Domain {
		t.Errorf("adequacy classes don't sum to domain: %+v", res)
	}

	if code, _ := get(t, ts.URL+"/tcd?syscall=nonexistent"); code != http.StatusNotFound {
		t.Errorf("unknown syscall: status %d, want 404", code)
	}
	if code, _ := get(t, ts.URL+"/tcd?syscall=open&arg=flags&target=zero"); code != http.StatusBadRequest {
		t.Errorf("bad target: status %d, want 400", code)
	}
	if code, _ := get(t, ts.URL+"/tcd?syscall=open&arg=flags&target=0"); code != http.StatusBadRequest {
		t.Errorf("zero target: status %d, want 400", code)
	}
}

// TestHealthzAndMethods covers liveness and method guards.
func TestHealthzAndMethods(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	code, body := get(t, ts.URL+"/healthz")
	if code != http.StatusOK {
		t.Fatalf("/healthz status %d", code)
	}
	var h map[string]any
	if err := json.Unmarshal(body, &h); err != nil {
		t.Fatalf("decode healthz: %v", err)
	}
	if h["status"] != "ok" {
		t.Errorf("healthz status = %v", h["status"])
	}

	if code, _ := get(t, ts.URL+"/ingest"); code != http.StatusMethodNotAllowed {
		t.Errorf("GET /ingest: status %d, want 405", code)
	}
	for _, path := range []string{"/report", "/tcd", "/metrics", "/healthz"} {
		resp, err := http.Post(ts.URL+path, "application/json", nil)
		if err != nil {
			t.Fatalf("POST %s: %v", path, err)
		}
		_, _ = io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusMethodNotAllowed {
			t.Errorf("POST %s: status %d, want 405", path, resp.StatusCode)
		}
	}
}

// TestRunCheckpointLoop: the loop writes a final checkpoint on shutdown.
func TestRunCheckpointLoop(t *testing.T) {
	dir := t.TempDir()
	ckpt := filepath.Join(dir, "ckpt.json")
	s, ts := newTestServer(t, Config{CheckpointPath: ckpt})
	if resp, _ := ingest(t, ts.URL, "", encodeStream(t, streamEvents(0))); resp.StatusCode != http.StatusOK {
		t.Fatalf("ingest failed")
	}

	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan struct{})
	go func() {
		s.RunCheckpointLoop(ctx, time.Hour, nil) // interval never fires; final write on cancel
		close(done)
	}()
	cancel()
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("checkpoint loop did not exit")
	}

	b, err := os.ReadFile(ckpt)
	if err != nil {
		t.Fatalf("final checkpoint missing: %v", err)
	}
	_, report := get(t, ts.URL+"/report")
	if !bytes.Equal(b, report) {
		t.Errorf("checkpoint bytes differ from /report")
	}
}

// TestRestoreCorruptCheckpoint: a corrupt checkpoint fails startup loudly
// instead of silently dropping history.
func TestRestoreCorruptCheckpoint(t *testing.T) {
	dir := t.TempDir()
	ckpt := filepath.Join(dir, "ckpt.json")
	if err := os.WriteFile(ckpt, []byte("{not json"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := New(Config{CheckpointPath: ckpt}); err == nil {
		t.Error("New accepted corrupt checkpoint")
	}
}

// TestBadMountPattern: an invalid filter regexp fails construction.
func TestBadMountPattern(t *testing.T) {
	if _, err := New(Config{MountPattern: "("}); err == nil {
		t.Error("New accepted invalid mount pattern")
	}
}
