package edge

import (
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/obs"
)

// TestHTTPEdgeInstrumented drives an instrumented edge through a
// scripted request sequence and checks the exact counter values each
// step implies, then serves one stale answer and checks the scrape.
func TestHTTPEdgeInstrumented(t *testing.T) {
	reg := obs.NewRegistry()
	now := time.Unix(1_700_000_000, 0)
	origin := &failableOrigin{inner: JSONOrigin{Articles: 50}}
	e := &HTTPEdge{
		Cache:      NewCache(1<<20, time.Minute, 2),
		Origin:     origin,
		Now:        func() time.Time { return now },
		ServeStale: true,
	}
	e.Instrument(reg)
	srv := httptest.NewServer(e)
	defer srv.Close()

	do := func(method, path string, hdr map[string]string) (*http.Response, []byte) {
		req, err := http.NewRequest(method, srv.URL+path, nil)
		if err != nil {
			t.Fatal(err)
		}
		for k, v := range hdr {
			req.Header.Set(k, v)
		}
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		body, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		return resp, body
	}

	// 1. GET /stories: cache miss, fetched from origin.
	resp, body1 := do("GET", "/stories", nil)
	etag := resp.Header.Get("ETag")
	// That one miss is one recorded origin fetch on the wire.
	var first strings.Builder
	if err := reg.WritePrometheus(&first); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(first.String(), "edge_origin_fetch_seconds_count 1\n") {
		t.Errorf("scrape after one miss lacks edge_origin_fetch_seconds_count 1:\n%s", first.String())
	}
	// 2. GET /stories again: cache hit.
	_, body2 := do("GET", "/stories", nil)
	// 3. GET an unknown article: origin error, 404 served.
	resp3, body3 := do("GET", "/article/9999", nil)
	if resp3.StatusCode != 404 {
		t.Fatalf("bad article status = %d", resp3.StatusCode)
	}
	// 4. POST telemetry: uncacheable tunnel to origin.
	_, body4 := do("POST", "/ingest/metrics", nil)
	// 5. HEAD /stories: origin fetch, no body written.
	do("HEAD", "/stories", nil)
	// 6. Conditional GET with the current ETag: 304, cache hit, no body.
	resp6, _ := do("GET", "/stories", map[string]string{"If-None-Match": etag})
	if resp6.StatusCode != http.StatusNotModified {
		t.Fatalf("conditional status = %d", resp6.StatusCode)
	}

	in := e.Obs
	wantBytes := int64(len(body1) + len(body2) + len(body3) + len(body4))
	checks := []struct {
		name string
		got  int64
		want int64
	}{
		{"requests{get}", in.GETRequests.Value(), 4},
		{"requests{post}", in.POSTRequests.Value(), 1},
		{"requests{head}", in.HEADRequests.Value(), 1},
		{"requests{other}", in.OtherRequests.Value(), 0},
		{"not_modified", in.NotModified.Value(), 1},
		{"bytes_served", in.BytesServed.Value(), wantBytes},
		{"origin_fetches", in.OriginFetch.Count(), 4}, // steps 1, 3, 4, 5
		{"origin_errors", in.OriginErrors.Value(), 1},
		{"cache hits", e.Cache.Metrics().Hits, 2},     // steps 2, 6
		{"cache misses", e.Cache.Metrics().Misses, 2}, // steps 1, 3
	}
	for _, c := range checks {
		if c.got != c.want {
			t.Errorf("%s = %d, want %d", c.name, c.got, c.want)
		}
	}

	// 7. Past the TTL with the origin down: the expired copy is served.
	now = now.Add(2 * time.Minute)
	origin.down = true
	if resp, _ := do("GET", "/stories", nil); resp.Header.Get("X-Cache") != "STALE" {
		t.Fatalf("outage fetch = %d %s, want STALE", resp.StatusCode, resp.Header.Get("X-Cache"))
	}

	// The edge's and the cache's metrics surface through the registry's
	// exposition; the stale serve is the edge's, so the cache has no
	// stale series of its own.
	var b strings.Builder
	if err := reg.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	for _, want := range []string{
		"edge_cache_hits_total 2",
		"edge_cache_misses_total 3", // step 7 read an expired entry
		`edge_requests_total{method="get"} 5`,
		"# TYPE edge_origin_fetch_seconds summary",
		`edge_origin_fetch_seconds{quantile="0.99"} `,
		"edge_origin_fetch_seconds_sum ",
		"edge_origin_fetch_seconds_count 5",
		"edge_stale_serves_total 1",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("scrape missing %q:\n%s", want, out)
		}
	}
	if strings.Contains(out, "edge_cache_stale_serves_total") {
		t.Errorf("scrape has an edge_cache_stale_serves_total series:\n%s", out)
	}
}

// TestHTTPEdgeInstrumentedConcurrent hammers an instrumented edge from
// many goroutines; run under -race this guards the whole serving +
// metrics path.
func TestHTTPEdgeInstrumentedConcurrent(t *testing.T) {
	reg := obs.NewRegistry()
	e := &HTTPEdge{
		Cache:  NewCache(1<<20, time.Minute, 4),
		Origin: &JSONOrigin{Articles: 20},
	}
	e.Instrument(reg)
	srv := httptest.NewServer(e)
	defer srv.Close()

	const clients, perClient = 8, 25
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for i := 0; i < perClient; i++ {
				resp, err := http.Get(srv.URL + "/stories")
				if err != nil {
					t.Error(err)
					return
				}
				io.Copy(io.Discard, resp.Body)
				resp.Body.Close()
			}
		}(c)
	}
	// Scrape concurrently with the load.
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < 20; i++ {
			var b strings.Builder
			reg.WritePrometheus(&b)
		}
	}()
	wg.Wait()

	if got := e.Obs.GETRequests.Value(); got != clients*perClient {
		t.Errorf("requests{get} = %d, want %d", got, clients*perClient)
	}
	m := e.Cache.Metrics()
	if m.Hits+m.Misses != clients*perClient {
		t.Errorf("cache lookups = %d, want %d", m.Hits+m.Misses, clients*perClient)
	}
}
