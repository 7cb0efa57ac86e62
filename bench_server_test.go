// Benchmarks for the iocovd ingest path: pre-serialized binary trace
// streams POSTed through a loopback daemon, 1 vs N concurrent sessions.
// The contended case measures the whole pipeline — HTTP transport, binary
// parse, per-session pooled filter+analyzer, and the striped store merge.
package iocov

import (
	"bytes"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"sync"
	"testing"

	"iocov/internal/server"
	"iocov/internal/trace"
)

// benchStream pre-serializes one suite run's filtered events in the binary
// trace format, returning the payload and its event count.
func benchStream(tb testing.TB, scale float64) ([]byte, int) {
	evs := collectEvents(tb, scale)
	var buf bytes.Buffer
	w := trace.NewBinaryWriter(&buf)
	for _, ev := range evs {
		w.Emit(ev)
	}
	if err := w.Flush(); err != nil {
		tb.Fatal(err)
	}
	return buf.Bytes(), len(evs)
}

// BenchmarkIngestThroughput streams the same payload through a loopback
// iocovd, serially and with 8 concurrent sessions, reporting end-to-end
// events/sec. The concurrent case shows how much of the pipeline
// (everything but the final store merge) parallelizes across sessions.
func BenchmarkIngestThroughput(b *testing.B) {
	payload, nEvents := benchStream(b, benchScale)
	for _, streams := range []int{1, 8} {
		b.Run(fmt.Sprintf("streams=%d", streams), func(b *testing.B) {
			srv, err := server.New(server.Config{})
			if err != nil {
				b.Fatal(err)
			}
			ts := httptest.NewServer(srv.Handler())
			defer ts.Close()
			// The default transport keeps only 2 idle conns per host, so at
			// streams=8 three quarters of the sockets are torn down and
			// redialed every iteration — connection churn that would be
			// misread as ingest cost. Size the idle pool to the stream count.
			client := &http.Client{Transport: &http.Transport{
				MaxIdleConns:        streams,
				MaxIdleConnsPerHost: streams,
			}}
			defer client.CloseIdleConnections()
			b.SetBytes(int64(len(payload) * streams))
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				var wg sync.WaitGroup
				for s := 0; s < streams; s++ {
					wg.Add(1)
					go func() {
						defer wg.Done()
						resp, err := client.Post(ts.URL+"/ingest", "application/octet-stream",
							bytes.NewReader(payload))
						if err != nil {
							b.Error(err)
							return
						}
						_, _ = io.Copy(io.Discard, resp.Body)
						_ = resp.Body.Close()
						if resp.StatusCode != http.StatusOK {
							b.Errorf("ingest status %d", resp.StatusCode)
						}
					}()
				}
				wg.Wait()
			}
			b.StopTimer()
			b.ReportMetric(float64(nEvents*streams*b.N)/b.Elapsed().Seconds(), "events/sec")
		})
	}
}
