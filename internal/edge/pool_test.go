package edge

import (
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"repro/internal/logfmt"
)

func TestPoolRouteStable(t *testing.T) {
	p := NewPool(4, 1<<20, time.Minute)
	for i := 0; i < 50; i++ {
		url := fmt.Sprintf("https://x.com/obj/%d", i)
		a, b := p.Route(url), p.Route(url)
		if a != b {
			t.Fatalf("routing unstable for %s", url)
		}
	}
}

func TestPoolRouteBalanced(t *testing.T) {
	p := NewPool(4, 1<<20, time.Minute)
	counts := map[string]int{}
	for i := 0; i < 4000; i++ {
		counts[p.Route(fmt.Sprintf("https://x.com/obj/%d", i)).Name]++
	}
	for name, c := range counts {
		if c < 400 || c > 2200 {
			t.Errorf("server %s got %d/4000 objects", name, c)
		}
	}
	if len(counts) != 4 {
		t.Errorf("only %d servers used", len(counts))
	}
}

func TestPoolPanicsOnZeroServers(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	NewPool(0, 1, time.Minute)
}

func replayRec(url string, cache logfmt.CacheStatus, at time.Time) logfmt.Record {
	return logfmt.Record{
		Time: at, ClientID: 1, Method: "GET", URL: url,
		MIMEType: "application/json", Status: 200, Bytes: 500, Cache: cache,
	}
}

func TestReplayCacheBehavior(t *testing.T) {
	p := NewPool(2, 1<<20, time.Minute)
	var res ReplayResult
	// Two requests to the same cacheable object: miss then hit.
	r1 := replayRec("https://x.com/a", logfmt.CacheMiss, t0)
	r2 := replayRec("https://x.com/a", logfmt.CacheHit, t0.Add(10*time.Second))
	// Uncacheable object tunnels.
	r3 := replayRec("https://x.com/priv", logfmt.CacheUncacheable, t0)
	// POST tunnels even if object cacheable.
	r4 := replayRec("https://x.com/a", logfmt.CacheMiss, t0.Add(20*time.Second))
	r4.Method = "POST"
	for _, r := range []logfmt.Record{r1, r2, r3, r4} {
		rr := r
		p.Replay(&rr, &res)
	}
	if res.Requests != 4 || res.Cacheable != 2 || res.Uncacheable != 2 {
		t.Errorf("result = %+v", res)
	}
	if res.Hits != 1 {
		t.Errorf("hits = %d", res.Hits)
	}
	if res.HitRatio() != 0.5 {
		t.Errorf("ratio = %v", res.HitRatio())
	}
	if res.OriginBytes != 1500 { // r1 miss + r3 + r4
		t.Errorf("origin bytes = %d", res.OriginBytes)
	}
	if res.ServedBytes != 2000 {
		t.Errorf("served bytes = %d", res.ServedBytes)
	}
}

func TestReplayTTLExpiry(t *testing.T) {
	p := NewPool(1, 1<<20, time.Minute)
	var res ReplayResult
	r1 := replayRec("https://x.com/a", logfmt.CacheMiss, t0)
	r2 := replayRec("https://x.com/a", logfmt.CacheMiss, t0.Add(2*time.Minute))
	p.Replay(&r1, &res)
	p.Replay(&r2, &res)
	if res.Hits != 0 {
		t.Errorf("hit after TTL: %+v", res)
	}
}

func TestPoolMetricsAggregate(t *testing.T) {
	p := NewPool(3, 1<<20, time.Minute)
	var res ReplayResult
	for i := 0; i < 30; i++ {
		r := replayRec(fmt.Sprintf("https://x.com/o%d", i%10), logfmt.CacheMiss, t0.Add(time.Duration(i)*time.Second))
		p.Replay(&r, &res)
	}
	m := p.Metrics()
	if m.Hits != 20 || m.Misses != 10 {
		t.Errorf("pool metrics = %+v", m)
	}
	var perServer int64
	for _, s := range p.Servers() {
		perServer += s.Requests.Load()
	}
	if perServer != 30 {
		t.Errorf("server requests = %d", perServer)
	}
}

func TestHTTPEdgeServesAndCaches(t *testing.T) {
	e := &HTTPEdge{
		Cache:  NewCache(1<<20, time.Minute, 2),
		Origin: &JSONOrigin{Articles: 50},
	}
	var logs []logfmt.Record
	e.Log = func(r *logfmt.Record) { logs = append(logs, *r) }
	srv := httptest.NewServer(e)
	defer srv.Close()

	get := func(path string) (*http.Response, string) {
		resp, err := http.Get(srv.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		var sb strings.Builder
		buf := make([]byte, 4096)
		for {
			n, err := resp.Body.Read(buf)
			sb.Write(buf[:n])
			if err != nil {
				break
			}
		}
		resp.Body.Close()
		return resp, sb.String()
	}

	resp, body := get("/stories")
	if resp.StatusCode != 200 || resp.Header.Get("X-Cache") != "MISS" {
		t.Fatalf("first fetch: %d %s", resp.StatusCode, resp.Header.Get("X-Cache"))
	}
	if !strings.Contains(body, "article_id") {
		t.Errorf("manifest body = %.80s", body)
	}
	resp, _ = get("/stories")
	if resp.Header.Get("X-Cache") != "HIT" {
		t.Errorf("second fetch X-Cache = %s", resp.Header.Get("X-Cache"))
	}
	resp, _ = get("/article/1001")
	if resp.StatusCode != 200 {
		t.Errorf("article status = %d", resp.StatusCode)
	}
	resp, _ = get("/profile/alice")
	if resp.Header.Get("X-Cache") != "UNCACHEABLE" {
		t.Errorf("profile X-Cache = %s", resp.Header.Get("X-Cache"))
	}
	resp, _ = get("/nope")
	if resp.StatusCode != 404 {
		t.Errorf("missing path status = %d", resp.StatusCode)
	}

	if len(logs) != 5 {
		t.Fatalf("logged %d records", len(logs))
	}
	for i, r := range logs {
		if err := r.Validate(); err != nil {
			t.Errorf("log %d invalid: %v", i, err)
		}
		if !r.IsJSON() {
			t.Errorf("log %d mime = %s", i, r.MIMEType)
		}
	}
	if logs[0].Cache != logfmt.CacheMiss || logs[1].Cache != logfmt.CacheHit {
		t.Errorf("cache states = %v %v", logs[0].Cache, logs[1].Cache)
	}
}

func TestHTTPEdgePost(t *testing.T) {
	e := &HTTPEdge{
		Cache:  NewCache(1<<20, time.Minute, 1),
		Origin: &JSONOrigin{},
	}
	srv := httptest.NewServer(e)
	defer srv.Close()
	resp, err := http.Post(srv.URL+"/ingest/metrics", "application/json", strings.NewReader(`{"v":1}`))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != 200 {
		t.Errorf("POST status = %d", resp.StatusCode)
	}
	if resp.Header.Get("X-Cache") != "UNCACHEABLE" {
		t.Errorf("POST X-Cache = %s", resp.Header.Get("X-Cache"))
	}
}

func TestJSONOriginArticleBounds(t *testing.T) {
	o := &JSONOrigin{Articles: 10}
	if _, _, _, err := o.Fetch("/article/1009"); err != nil {
		t.Error("valid article rejected")
	}
	if _, _, _, err := o.Fetch("/article/1010"); err == nil {
		t.Error("out-of-range article accepted")
	}
	if _, _, _, err := o.Fetch("/article/abc"); err == nil {
		t.Error("non-numeric article accepted")
	}
}

func TestSecondHitAdmission(t *testing.T) {
	p := NewPool(1, 1<<20, time.Hour)
	p.Admission = SecondHitFilter()
	var res ReplayResult
	// First request: miss, NOT cached (one-hit so far).
	r1 := replayRec("https://x.com/a", logfmt.CacheMiss, t0)
	p.Replay(&r1, &res)
	if p.Servers()[0].Cache.Len() != 0 {
		t.Fatal("one-hit wonder was cached")
	}
	// Second request: miss again, but now admitted.
	r2 := replayRec("https://x.com/a", logfmt.CacheMiss, t0.Add(time.Second))
	p.Replay(&r2, &res)
	if p.Servers()[0].Cache.Len() != 1 {
		t.Fatal("second hit not admitted")
	}
	// Third request: hit.
	r3 := replayRec("https://x.com/a", logfmt.CacheMiss, t0.Add(2*time.Second))
	p.Replay(&r3, &res)
	if res.Hits != 1 {
		t.Errorf("hits = %d, want 1", res.Hits)
	}
}

func TestSecondHitFilterReducesChurn(t *testing.T) {
	// A stream of mostly one-hit wonders plus a recurring hot set: with
	// admission filtering the tiny cache keeps the hot set and hits
	// more, with fewer evictions.
	run := func(admit bool) (float64, int64) {
		p := NewPool(1, 12_000, time.Hour) // room for ~24 objects of 500 B
		if admit {
			p.Admission = SecondHitFilter()
		}
		var res ReplayResult
		at := t0
		for round := 0; round < 40; round++ {
			// Hot set of 10 objects...
			for h := 0; h < 10; h++ {
				r := replayRec(fmt.Sprintf("https://x.com/hot/%d", h), logfmt.CacheMiss, at)
				p.Replay(&r, &res)
				at = at.Add(time.Second)
			}
			// ...interleaved with 30 one-hit wonders per round.
			for w := 0; w < 30; w++ {
				r := replayRec(fmt.Sprintf("https://x.com/once/%d-%d", round, w), logfmt.CacheMiss, at)
				p.Replay(&r, &res)
				at = at.Add(time.Second)
			}
		}
		return res.HitRatio(), p.Metrics().Evictions
	}
	plainRatio, plainEvict := run(false)
	admitRatio, admitEvict := run(true)
	if admitRatio <= plainRatio {
		t.Errorf("admission ratio %.3f not above plain %.3f", admitRatio, plainRatio)
	}
	if admitEvict >= plainEvict {
		t.Errorf("admission evictions %d not below plain %d", admitEvict, plainEvict)
	}
}

func TestHTTPEdgeConditionalRequests(t *testing.T) {
	e := &HTTPEdge{
		Cache:  NewCache(1<<20, time.Minute, 1),
		Origin: &JSONOrigin{Articles: 10},
	}
	srv := httptest.NewServer(e)
	defer srv.Close()

	resp, err := http.Get(srv.URL + "/stories")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	etag := resp.Header.Get("ETag")
	if etag == "" {
		t.Fatal("no ETag on response")
	}

	req, _ := http.NewRequest("GET", srv.URL+"/stories", nil)
	req.Header.Set("If-None-Match", etag)
	resp2, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	body := make([]byte, 10)
	n, _ := resp2.Body.Read(body)
	resp2.Body.Close()
	if resp2.StatusCode != http.StatusNotModified {
		t.Errorf("status = %d, want 304", resp2.StatusCode)
	}
	if n != 0 {
		t.Errorf("304 carried %d body bytes", n)
	}
	if resp2.Header.Get("ETag") != etag {
		t.Errorf("etag changed: %s", resp2.Header.Get("ETag"))
	}

	// A stale validator gets the full body.
	req2, _ := http.NewRequest("GET", srv.URL+"/stories", nil)
	req2.Header.Set("If-None-Match", `"0000000000000000"`)
	resp3, err := http.DefaultClient.Do(req2)
	if err != nil {
		t.Fatal(err)
	}
	defer resp3.Body.Close()
	if resp3.StatusCode != http.StatusOK {
		t.Errorf("stale validator status = %d", resp3.StatusCode)
	}
}
