package main

import (
	"net/http/httptest"
	"runtime"
	"testing"
)

// TestServeStackRetainsNoRequests serves 50 000 cache hits on one URL
// through the -serve edge stack and requires the live heap to stay
// within 1 MiB of where it started: a long-lived edge must not keep a
// copy of every request it answered. The count still reaches the
// shutdown report through the edge's request counters.
func TestServeStackRetainsNoRequests(t *testing.T) {
	const requests = 50_000
	st := buildEdgeStack(0, 7, true, false)
	serve := func() {
		rec := httptest.NewRecorder()
		st.edge.ServeHTTP(rec, httptest.NewRequest("GET", "http://edge.test/stories", nil))
		if rec.Code != 200 {
			t.Fatalf("GET /stories = %d", rec.Code)
		}
	}
	serve() // the miss that fills the cache
	heap := func() uint64 {
		runtime.GC()
		var m runtime.MemStats
		runtime.ReadMemStats(&m)
		return m.HeapAlloc
	}
	before := heap()
	for i := 1; i < requests; i++ {
		serve()
	}
	after := heap()
	if after > before && after-before >= 1<<20 {
		t.Errorf("live heap grew %d KiB over %d requests", (after-before)>>10, requests)
	}
	if got := st.served(); got != requests {
		t.Errorf("served = %d, want %d", got, requests)
	}
	runtime.KeepAlive(st)
}
