package livechar_test

import (
	"fmt"
	"net/http/httptest"
	"testing"
	"time"

	"repro/internal/edge"
	"repro/internal/livechar"
	"repro/internal/logfmt"
)

// The edge-overhead pair: BenchmarkEdgeServeBaseline is the plain
// request path (Log nil, so the edge skips building records entirely),
// and BenchmarkEdgeWithLiveChar is the same path with the async
// characterization tap attached — the full cost of -livechar: record
// construction plus the non-blocking hand-off. The relative overhead
// is the ratio of the two means; the tap's drop rate rides along as a
// custom metric so a "fast" result achieved by shedding load is visible.

func newBenchEdge() *edge.HTTPEdge {
	return &edge.HTTPEdge{
		Cache:  edge.NewCache(1<<24, time.Hour, 8),
		Origin: &edge.JSONOrigin{Articles: 64},
	}
}

// serveEdge drives b.N requests through ServeHTTP directly (no
// listener): a 64-object working set that fits the cache, from a
// rotating pool of client addresses so the per-client n-gram histories
// are exercised, not just one.
func serveEdge(b *testing.B, e *edge.HTTPEdge) {
	paths := make([]string, 64)
	for i := range paths {
		paths[i] = fmt.Sprintf("/article/%d", 1000+i)
	}
	addrs := make([]string, 32)
	for i := range addrs {
		addrs[i] = fmt.Sprintf("10.0.%d.%d:4242", i/256, i%256)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		req := httptest.NewRequest("GET", "http://edge.bench"+paths[i%len(paths)], nil)
		req.RemoteAddr = addrs[i%len(addrs)]
		rec := httptest.NewRecorder()
		e.ServeHTTP(rec, req)
	}
	b.StopTimer()
}

func BenchmarkEdgeServeBaseline(b *testing.B) {
	serveEdge(b, newBenchEdge())
}

func BenchmarkEdgeWithLiveChar(b *testing.B) {
	e := newBenchEdge()
	lc := livechar.New(livechar.Config{Window: time.Minute})
	lc.Start()
	e.Log = func(r *logfmt.Record) { lc.Observe(r) }
	serveEdge(b, e)
	lc.Close()
	snap := lc.Snapshot()
	if total := snap.Events + snap.Drops; total > 0 {
		b.ReportMetric(float64(snap.Drops)/float64(total), "drop-rate")
	}
}
