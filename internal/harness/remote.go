package harness

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"runtime"
	"strings"
	"sync"
	"time"

	"iocov/internal/coverage"
	"iocov/internal/kernel"
	"iocov/internal/server"
	"iocov/internal/suites/crashmonkey"
	"iocov/internal/suites/xfstests"
	"iocov/internal/trace"
	"iocov/internal/vfs"
)

// Remote mode streams suite shards to an iocovd daemon instead of analyzing
// locally: each shard's raw kernel emissions are serialized in the binary
// trace format straight onto a POST /ingest request (an io.Pipe, no
// intermediate buffer), and the daemon runs its own Filter→Analyzer
// pipeline per session. Because a shard is a pure function of
// (suite, scale, seed, shard, shards) and the daemon rejects a failed
// session without merging anything, a transient failure is retried simply
// by re-running the shard.

// RemoteOptions tunes RunRemote. The zero value picks sensible defaults.
type RemoteOptions struct {
	// Workers is the shard count (and upload concurrency); <= 0 means
	// runtime.GOMAXPROCS(0) via RunParallel's convention.
	Workers int
	// Attempts is how many times each shard is tried before giving up on a
	// transient failure; <= 0 means 4.
	Attempts int
	// Backoff is the first retry delay, doubled after every failed attempt
	// (capped at 2s); <= 0 means 200ms.
	Backoff time.Duration
	// Client overrides the HTTP client (tests); nil means a default client
	// with no overall timeout, since an ingest stream legitimately lasts as
	// long as the suite shard runs.
	Client *http.Client
}

// RemoteResult aggregates the daemon's per-shard ingest receipts.
type RemoteResult struct {
	Shards   int
	Retries  int
	Events   int64
	Kept     int64
	Dropped  int64
	Analyzed int64
	Skipped  int64
}

// transientErr marks failures worth retrying: transport errors and the
// daemon's 503 backpressure signal.
type transientErr struct{ err error }

func (e *transientErr) Error() string { return e.err.Error() }
func (e *transientErr) Unwrap() error { return e.err }

// normalizeAddr turns a bare host:port into an http URL base.
func normalizeAddr(addr string) string {
	if strings.Contains(addr, "://") {
		return strings.TrimRight(addr, "/")
	}
	return "http://" + strings.TrimRight(addr, "/")
}

// WaitReady polls the daemon's /healthz with exponential backoff until it
// answers 200 or the cumulative wait exceeds timeout. It lets a harness be
// started concurrently with the daemon it streams to.
func WaitReady(addr string, timeout time.Duration) error {
	url := normalizeAddr(addr) + "/healthz"
	client := &http.Client{Timeout: 2 * time.Second}
	delay := 50 * time.Millisecond
	var waited time.Duration
	for {
		resp, err := client.Get(url)
		if err == nil {
			_, _ = io.Copy(io.Discard, resp.Body)
			_ = resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return nil
			}
			err = fmt.Errorf("status %d", resp.StatusCode)
		}
		if waited >= timeout {
			return fmt.Errorf("harness: daemon at %s not ready after %v: %w", addr, waited, err)
		}
		time.Sleep(delay)
		waited += delay
		if delay *= 2; delay > 2*time.Second {
			delay = 2 * time.Second
		}
	}
}

// runShardToSink executes one suite shard with the raw kernel emissions
// going to sink — no filter and no analyzer, because in remote mode both
// live on the daemon side of the wire.
func runShardToSink(suite string, scale float64, seed int64, shard, shards int, sink trace.Sink) error {
	k := kernel.New(vfs.New(vfs.DefaultConfig()), kernel.Options{Sink: sink})
	var err error
	switch suite {
	case SuiteXfstests:
		_, err = xfstests.Run(k, xfstests.Config{Scale: scale, Seed: seed, Noise: true, Shard: shard, Shards: shards})
	case SuiteCrashMonkey:
		_, err = crashmonkey.Run(k, crashmonkey.Config{Scale: scale, Seed: seed, Noise: true, Shard: shard, Shards: shards})
	default:
		err = fmt.Errorf("harness: unknown suite %q", suite)
	}
	return err
}

// streamShardOnce runs one shard once, streaming its binary trace to the
// daemon, and decodes the ingest receipt.
func streamShardOnce(client *http.Client, base, suite string, scale float64, seed int64, shard, shards int, session string) (server.IngestResult, error) {
	var res server.IngestResult
	pr, pw := io.Pipe()
	go func() {
		w := trace.NewBinaryWriter(pw)
		err := runShardToSink(suite, scale, seed, shard, shards, w)
		if err == nil {
			err = w.Flush()
		}
		// nil err closes the pipe with a clean EOF; anything else aborts
		// the request body so the daemon rejects the session.
		_ = pw.CloseWithError(err) // documented to always return nil
	}()
	req, err := http.NewRequest(http.MethodPost, base+"/ingest", pr)
	if err != nil {
		return res, err
	}
	req.Header.Set("X-Iocov-Session", session)
	req.Header.Set("Content-Type", "application/octet-stream")
	resp, err := client.Do(req)
	if err != nil {
		return res, &transientErr{err}
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(io.LimitReader(resp.Body, 1<<16))
	if err != nil {
		return res, &transientErr{err}
	}
	switch resp.StatusCode {
	case http.StatusOK:
		if err := json.Unmarshal(body, &res); err != nil {
			return res, fmt.Errorf("harness: bad ingest receipt: %w", err)
		}
		return res, nil
	case http.StatusServiceUnavailable:
		return res, &transientErr{fmt.Errorf("daemon backpressure: %s", strings.TrimSpace(string(body)))}
	default:
		return res, fmt.Errorf("harness: ingest rejected with status %d: %s",
			resp.StatusCode, strings.TrimSpace(string(body)))
	}
}

// streamShard retries streamShardOnce with exponential backoff on transient
// failures. Re-running is safe because shards are deterministic and a
// failed session merges nothing on the daemon.
func streamShard(client *http.Client, base, suite string, scale float64, seed int64, shard, shards, attempts int, backoff time.Duration) (server.IngestResult, int, error) {
	var lastErr error
	delay := backoff
	for attempt := 0; attempt < attempts; attempt++ {
		if attempt > 0 {
			time.Sleep(delay)
			if delay *= 2; delay > 2*time.Second {
				delay = 2 * time.Second
			}
		}
		session := fmt.Sprintf("%s-s%g-n%d-shard%d/%d-try%d", suite, scale, seed, shard, shards, attempt)
		res, err := streamShardOnce(client, base, suite, scale, seed, shard, shards, session)
		if err == nil {
			return res, attempt, nil
		}
		lastErr = err
		var te *transientErr
		if !errors.As(err, &te) {
			break // permanent rejection: retrying the same bytes cannot help
		}
	}
	return server.IngestResult{}, attempts, lastErr
}

// RunRemote shards a suite run across workers and streams every shard to
// the iocovd daemon at addr, returning the summed ingest receipts. The
// daemon ends up with exactly the coverage a local RunParallel would have
// computed, by the analyzer merge contract.
func RunRemote(addr, suite string, scale float64, seed int64, ro RemoteOptions) (*RemoteResult, error) {
	switch suite {
	case SuiteXfstests, SuiteCrashMonkey:
	default:
		return nil, fmt.Errorf("harness: unknown suite %q", suite)
	}
	workers := ro.Workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	attempts := ro.Attempts
	if attempts <= 0 {
		attempts = 4
	}
	backoff := ro.Backoff
	if backoff <= 0 {
		backoff = 200 * time.Millisecond
	}
	client := ro.Client
	if client == nil {
		client = &http.Client{}
	}
	base := normalizeAddr(addr)

	results := make([]server.IngestResult, workers)
	retries := make([]int, workers)
	errs := make([]error, workers)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			results[w], retries[w], errs[w] = streamShard(
				client, base, suite, scale, seed, w, workers, attempts, backoff)
		}(w)
	}
	wg.Wait()
	out := &RemoteResult{Shards: workers}
	for w := 0; w < workers; w++ {
		if errs[w] != nil {
			return nil, fmt.Errorf("harness: shard %d/%d failed after %d attempts: %w",
				w, workers, retries[w], errs[w])
		}
		out.Retries += retries[w]
		out.Events += results[w].Events
		out.Kept += results[w].Kept
		out.Dropped += results[w].Dropped
		out.Analyzed += results[w].Analyzed
		out.Skipped += results[w].Skipped
	}
	return out, nil
}

// FetchRemoteReport downloads and decodes the daemon's global snapshot.
func FetchRemoteReport(addr string) (*coverage.Snapshot, error) {
	resp, err := http.Get(normalizeAddr(addr) + "/report")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		body, _ := io.ReadAll(io.LimitReader(resp.Body, 1<<16))
		return nil, fmt.Errorf("harness: /report status %d: %s", resp.StatusCode, strings.TrimSpace(string(body)))
	}
	return coverage.LoadSnapshot(resp.Body)
}
