package harness_test

import (
	"net/http"
	"net/http/httptest"
	"runtime"
	"testing"
	"time"

	"iocov/internal/coverage"
	"iocov/internal/evolve"
	"iocov/internal/harness"
	"iocov/internal/server"
	"iocov/internal/syz"
)

// TestNoGoroutineLeaks checks that every library entry point that launches
// goroutines has none left running once it returns: the goroutine count
// must fall back to its value before the call, after test servers and idle
// HTTP connections are closed. A worker that blocks on a channel or pipe
// nobody drains keeps the count up until the deadline. The two launches in
// cmd/iocovd are covered by scripts/smoke_iocovd.sh, which requires a clean
// exit after SIGTERM.
func TestNoGoroutineLeaks(t *testing.T) {
	// daemon starts an in-process iocovd; the caller closes it.
	daemon := func(t *testing.T, cfg server.Config) *httptest.Server {
		s, err := server.New(cfg)
		if err != nil {
			t.Fatalf("server.New: %v", err)
		}
		return httptest.NewServer(s.Handler())
	}
	remote := func(addr string) error {
		_, err := harness.RunRemote(addr, harness.SuiteCrashMonkey, 0.02, 1,
			harness.RemoteOptions{Workers: 2, Attempts: 1})
		return err
	}

	cases := []struct {
		name string
		run  func(t *testing.T)
	}{
		{"RunParallel", func(t *testing.T) {
			an, err := harness.RunParallel(harness.SuiteCrashMonkey, 0.02, 1, 3, coverage.DefaultOptions())
			if err != nil {
				t.Fatalf("RunParallel: %v", err)
			}
			harness.ReleaseAnalyzer(an)
		}},
		{"MergeTree", func(t *testing.T) {
			ans := make([]*coverage.Analyzer, 5)
			for i := range ans {
				ans[i] = coverage.NewAnalyzer(coverage.DefaultOptions())
			}
			if _, err := harness.MergeTree(ans); err != nil {
				t.Fatalf("MergeTree: %v", err)
			}
		}},
		{"RunRemote/accepted", func(t *testing.T) {
			ts := daemon(t, server.Config{})
			defer ts.Close()
			if err := remote(ts.URL); err != nil {
				t.Fatalf("RunRemote: %v", err)
			}
		}},
		{"RunRemote/too_large", func(t *testing.T) {
			ts := daemon(t, server.Config{MaxBodyBytes: 1})
			defer ts.Close()
			if err := remote(ts.URL); err == nil {
				t.Fatal("RunRemote succeeded against a 1-byte body limit")
			}
		}},
		{"RunRemote/closed_address", func(t *testing.T) {
			ts := httptest.NewServer(http.NotFoundHandler())
			addr := ts.URL
			ts.Close()
			if err := remote(addr); err == nil {
				t.Fatal("RunRemote succeeded against a closed address")
			}
		}},
		{"evolve.Run", func(t *testing.T) {
			seed := syz.Generate(syz.GenConfig{Programs: 10, Seed: 3, Dir: "/evolve"})
			if _, err := evolve.Run(seed, evolve.Config{Seed: 3, Generations: 2, Workers: 2}); err != nil {
				t.Fatalf("evolve.Run: %v", err)
			}
		}},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			before := runtime.NumGoroutine()
			c.run(t)
			http.DefaultTransport.(*http.Transport).CloseIdleConnections()
			deadline := time.Now().Add(2 * time.Second)
			for {
				n := runtime.NumGoroutine()
				if n <= before {
					return
				}
				if time.Now().After(deadline) {
					buf := make([]byte, 1<<20)
					buf = buf[:runtime.Stack(buf, true)]
					t.Fatalf("%d goroutines still running, %d before the call:\n%s", n, before, buf)
				}
				time.Sleep(10 * time.Millisecond)
			}
		})
	}
}
