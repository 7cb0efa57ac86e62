package server

import (
	"bytes"
	"fmt"
	"io"
	"net/http"
	"sync"
	"testing"

	"iocov/internal/coverage"
	"iocov/internal/trace"
)

// TestIngestChurnPoisoningStress hammers the daemon with concurrent
// sessions where good streams and poisoned streams interleave on the same
// connections — the workload the pooled session state and the striped
// store must survive. Every recycled analyzer/decoder/filter that served a
// malformed stream is immediately reused for a good one, so any state
// bleed (stale dictionary entries, partial counts, leftover fd tables)
// shows up as a /report mismatch against the serial reference; any
// locking mistake in the stripes shows up under -race.
func TestIngestChurnPoisoningStress(t *testing.T) {
	const (
		goroutines = 8
		rounds     = 12
	)
	s, ts := newTestServer(t, Config{})

	// The deterministic schedule: slot idx posts good stream idx, except
	// every third slot, which posts a poisoned stream instead. The
	// reference below re-analyzes exactly the good slots, so /report
	// equality holds for any interleaving (merges are additive).
	type slot struct {
		payload  []byte
		poisoned bool // must be rejected and merge nothing
	}
	var slots []slot
	var good [][]trace.Event
	for idx := 0; idx < goroutines*rounds; idx++ {
		evs := streamEvents(idx)
		payload := encodeStream(t, evs)
		switch idx % 3 {
		case 2:
			// Rotate through the poison shapes: truncation mid-stream, a
			// garbage header, and the retired v1 header over a valid body.
			switch (idx / 3) % 3 {
			case 0:
				slots = append(slots, slot{payload: payload[:len(payload)/2], poisoned: true})
			case 1:
				slots = append(slots, slot{payload: []byte("not a trace stream at all"), poisoned: true})
			default:
				slots = append(slots, slot{payload: retiredV1(payload), poisoned: true})
			}
		default:
			slots = append(slots, slot{payload: payload})
			good = append(good, evs)
		}
	}

	client := ts.Client()
	var wg sync.WaitGroup
	errCh := make(chan error, goroutines*rounds)
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for r := 0; r < rounds; r++ {
				sl := slots[g*rounds+r]
				req, err := http.NewRequest(http.MethodPost, ts.URL+"/ingest", bytes.NewReader(sl.payload))
				if err != nil {
					errCh <- err
					return
				}
				resp, err := client.Do(req)
				if err != nil {
					errCh <- err
					return
				}
				_, _ = io.Copy(io.Discard, resp.Body)
				resp.Body.Close()
				if sl.poisoned && resp.StatusCode == http.StatusOK {
					errCh <- fmt.Errorf("goroutine %d round %d: poisoned stream accepted", g, r)
				}
				if !sl.poisoned && resp.StatusCode != http.StatusOK {
					errCh <- fmt.Errorf("goroutine %d round %d: good stream rejected with %d", g, r, resp.StatusCode)
				}
			}
		}(g)
	}
	wg.Wait()
	close(errCh)
	for err := range errCh {
		t.Fatal(err)
	}

	if got, want := s.Store().Sessions(), int64(len(good)); got != want {
		t.Errorf("merged sessions = %d, want %d", got, want)
	}
	nPoisoned := int64(goroutines*rounds - len(good))
	if got := s.Metrics().SessionsFailed.Load(); got != nPoisoned {
		t.Errorf("failed sessions = %d, want %d", got, nPoisoned)
	}

	// Byte-identity against a serial re-analysis of exactly the accepted
	// streams, each round-tripped through the codec so the reference sees
	// the events the daemon's decoder reconstructed.
	global := coverage.NewAnalyzer(coverage.DefaultOptions())
	for _, evs := range good {
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
	var want bytes.Buffer
	if err := global.Snapshot(0).WriteJSON(&want); err != nil {
		t.Fatalf("WriteJSON: %v", err)
	}
	resp, err := client.Get(ts.URL + "/report")
	if err != nil {
		t.Fatalf("report: %v", err)
	}
	got, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatalf("report body: %v", err)
	}
	if !bytes.Equal(got, want.Bytes()) {
		t.Errorf("/report differs from serial re-analysis after churn+poisoning\n got %d bytes\nwant %d bytes", len(got), want.Len())
	}
}
