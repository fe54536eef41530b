package edge

import (
	"net/http/httptest"
	"testing"
	"time"

	"repro/internal/logfmt"
	"repro/internal/obs"
)

// failableOrigin wraps JSONOrigin with a switchable temporary failure,
// standing in for an origin mid-brownout.
type failableOrigin struct {
	inner JSONOrigin
	down  bool
}

type tempErr struct{}

func (tempErr) Error() string   { return "origin down" }
func (tempErr) Temporary() bool { return true }

func (f *failableOrigin) Fetch(path string) ([]byte, string, bool, error) {
	if f.down {
		return nil, "", false, tempErr{}
	}
	return f.inner.Fetch(path)
}

// get serves one request directly through ServeHTTP (no listener, so
// the test clock is the only clock that matters).
func get(e *HTTPEdge, path, ua string) *httptest.ResponseRecorder {
	req := httptest.NewRequest("GET", "http://edge.test"+path, nil)
	if ua != "" {
		req.Header.Set("User-Agent", ua)
	}
	rec := httptest.NewRecorder()
	e.ServeHTTP(rec, req)
	return rec
}

// TestHTTPEdgeServeStale drives the serve-stale path on a deterministic
// clock: fill the cache, let the entry expire, break the origin, and
// check the expired copy is served with Age and Warning headers — and
// that the same edge without ServeStale answers 503.
func TestHTTPEdgeServeStale(t *testing.T) {
	now := time.Unix(1_700_000_000, 0)
	origin := &failableOrigin{inner: JSONOrigin{Articles: 10}}
	reg := obs.NewRegistry()
	e := &HTTPEdge{
		Cache:      NewCache(1<<20, time.Minute, 2),
		Origin:     origin,
		Now:        func() time.Time { return now },
		ServeStale: true,
	}
	e.Instrument(reg)

	if rec := get(e, "/stories", ""); rec.Code != 200 || rec.Header().Get("X-Cache") != "MISS" {
		t.Fatalf("warm-up = %d %s, want 200 MISS", rec.Code, rec.Header().Get("X-Cache"))
	}
	fresh := get(e, "/stories", "")
	if fresh.Code != 200 || fresh.Header().Get("X-Cache") != "HIT" {
		t.Fatalf("second fetch = %d %s, want 200 HIT", fresh.Code, fresh.Header().Get("X-Cache"))
	}

	// Past the TTL with the origin down: the expired copy is served.
	now = now.Add(2 * time.Minute)
	origin.down = true
	rec := get(e, "/stories", "")
	if rec.Code != 200 {
		t.Fatalf("stale serve = %d, want 200", rec.Code)
	}
	if got := rec.Header().Get("X-Cache"); got != "STALE" {
		t.Errorf("X-Cache = %q, want STALE", got)
	}
	if got := rec.Header().Get("Age"); got != "120" {
		t.Errorf("Age = %q, want 120", got)
	}
	if got := rec.Header().Get("Warning"); got != `110 - "Response is Stale"` {
		t.Errorf("Warning = %q", got)
	}
	if rec.Body.String() != fresh.Body.String() {
		t.Error("stale body differs from the cached copy")
	}
	if got := e.Obs.StaleServes.Value(); got != 1 {
		t.Errorf("stale serves = %d, want 1", got)
	}

	// A path never fetched cannot be served stale: temporary error → 503.
	if rec := get(e, "/article/1001", ""); rec.Code != 503 {
		t.Errorf("uncached path during outage = %d, want 503", rec.Code)
	}

	// The same situation without ServeStale degenerates to 503.
	e2 := &HTTPEdge{
		Cache:  NewCache(1<<20, time.Minute, 2),
		Origin: origin,
		Now:    func() time.Time { return now },
	}
	origin.down = false
	get(e2, "/stories", "")
	now = now.Add(2 * time.Minute)
	origin.down = true
	if rec := get(e2, "/stories", ""); rec.Code != 503 {
		t.Errorf("without ServeStale = %d, want 503", rec.Code)
	}
}

// TestHTTPEdgeShedding: with the origin path degraded, machine-class
// requests that miss the cache are shed with 503 while human requests
// still reach the origin; cache hits always serve.
func TestHTTPEdgeShedding(t *testing.T) {
	degraded := false
	reg := obs.NewRegistry()
	e := &HTTPEdge{
		Cache:    NewCache(1<<20, time.Hour, 2),
		Origin:   &JSONOrigin{Articles: 10},
		Degraded: func() bool { return degraded },
	}
	e.Instrument(reg)
	const iotUA = "HomeCam/1.9 (IoT; ESP32)"
	const phoneUA = "NewsApp/3.1 (iPhone; iOS 12.2)"

	// Healthy: telemetry tunnels normally.
	req := httptest.NewRequest("POST", "http://edge.test/ingest/metrics", nil)
	req.Header.Set("User-Agent", iotUA)
	rec := httptest.NewRecorder()
	e.ServeHTTP(rec, req)
	if rec.Code != 200 {
		t.Fatalf("healthy POST = %d, want 200", rec.Code)
	}
	get(e, "/stories", phoneUA) // warm the cache

	degraded = true
	// Machine-class miss: shed.
	req = httptest.NewRequest("POST", "http://edge.test/ingest/metrics", nil)
	req.Header.Set("User-Agent", iotUA)
	rec = httptest.NewRecorder()
	e.ServeHTTP(rec, req)
	if rec.Code != 503 {
		t.Fatalf("degraded machine POST = %d, want 503", rec.Code)
	}
	if got := rec.Header().Get("Retry-After"); got == "" {
		t.Error("shed response missing Retry-After")
	}
	// Embedded-device GET of an uncached path: shed too.
	if rec := get(e, "/article/1003", "Roku/DVP-9.10 (289.10E04111A)"); rec.Code != 503 {
		t.Errorf("degraded embedded GET = %d, want 503", rec.Code)
	}
	// Human GET of an uncached path still reaches the origin.
	if rec := get(e, "/article/1004", phoneUA); rec.Code != 200 {
		t.Errorf("degraded human GET = %d, want 200", rec.Code)
	}
	// Cache hits serve regardless of class.
	if rec := get(e, "/stories", iotUA); rec.Code != 200 || rec.Header().Get("X-Cache") != "HIT" {
		t.Errorf("degraded cached GET = %d %s, want 200 HIT", rec.Code, rec.Header().Get("X-Cache"))
	}
	if got := e.Obs.ShedMachine.Value(); got != 2 {
		t.Errorf("machine sheds = %d, want 2", got)
	}
}

// TestHTTPEdgeETagPinned pins the validator to the values the edge sent
// when it hashed the body on every response ("%016x" of FNV-64a, one of
// the three with a leading zero), and checks that keeping the ETag beside
// the stored body changes nothing a client sees: the same value on MISS
// and HIT.
func TestHTTPEdgeETagPinned(t *testing.T) {
	e := &HTTPEdge{
		Cache:  NewCache(1<<20, time.Minute, 1),
		Origin: &WildcardOrigin{},
	}
	serve := func(path string) *httptest.ResponseRecorder {
		rec := httptest.NewRecorder()
		e.ServeHTTP(rec, httptest.NewRequest("GET", "http://api.example.com"+path, nil))
		return rec
	}
	for _, c := range []struct{ path, etag, first, second string }{
		{"/v1/offer/1000", `"1be7d35b7fc9b7d7"`, "MISS", "HIT"},
		{"/v1/clip/1009?sid=7a4b", `"0d3b11525a31a2db"`, "MISS", "HIT"},
		{"/ingest/ch0", `"a215fc5f5fe88c92"`, "UNCACHEABLE", "UNCACHEABLE"},
	} {
		for _, want := range []string{c.first, c.second} {
			rec := serve(c.path)
			if got := rec.Header().Get("X-Cache"); got != want {
				t.Errorf("%s: X-Cache = %s, want %s", c.path, got, want)
			}
			if got := rec.Header().Get("ETag"); got != c.etag {
				t.Errorf("%s (%s): ETag = %s, want %s", c.path, want, got, c.etag)
			}
		}
	}
}

// TestHTTPEdgeLogsIPv6Clients: the logged ClientID hashes the whole
// remote host, so two IPv6 clients are two clients, while IPv4 and the
// experiments' "c<hex>:1" addresses hash as they always did.
func TestHTTPEdgeLogsIPv6Clients(t *testing.T) {
	var logged []logfmt.Record
	e := &HTTPEdge{
		Cache:  NewCache(1<<20, time.Minute, 1),
		Origin: &WildcardOrigin{},
		Log:    func(r *logfmt.Record) { logged = append(logged, *r) },
	}
	addrs := []string{"[2001:db8::1]:443", "[2001:db8::2]:443", "10.0.0.7:5555", "c1f:1", "no-port"}
	for _, addr := range addrs {
		req := httptest.NewRequest("GET", "http://edge.test/v1/x", nil)
		req.RemoteAddr = addr
		e.ServeHTTP(httptest.NewRecorder(), req)
	}
	for i, host := range []string{"2001:db8::1", "2001:db8::2", "10.0.0.7", "c1f", "no-port"} {
		if got, want := logged[i].ClientID, logfmt.HashClientIP(host); got != want {
			t.Errorf("RemoteAddr %q logged ClientID %x, want hash of %q = %x", addrs[i], got, host, want)
		}
	}
	if logged[0].ClientID == logged[1].ClientID {
		t.Error("two IPv6 clients share one ClientID")
	}
}
