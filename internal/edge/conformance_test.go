package edge

import (
	"fmt"
	"net/http"
	"net/http/httptest"
	"strconv"
	"testing"
	"time"

	"repro/internal/logfmt"
)

// scriptOrigin is a WildcardOrigin that counts fetches and can be taken
// down (a temporary failure, as a brownout looks to the edge).
type scriptOrigin struct {
	inner   WildcardOrigin
	down    bool
	fetches int
}

func (o *scriptOrigin) Fetch(path string) ([]byte, string, bool, error) {
	o.fetches++
	if o.down {
		return nil, "", false, tempErr{}
	}
	return o.inner.Fetch(path)
}

// observed is everything one exchange leaves behind: the response, the
// log record, the origin's fetch count and the defense's outcome ledger.
// Every exit of ServeHTTP goes through respond, so one harness reads them
// all the same way.
type observed struct {
	status                                 int
	xCache, etag, age, warning, retryAfter string
	bodyLen                                int
	loggedStatus                           int
	loggedBytes                            int64
	loggedCache                            logfmt.CacheStatus
	loggedURL                              string
	fetches                                int
	outcome                                bool // RecordOutcome ran
	outcomeCache                           logfmt.CacheStatus
}

// harness is one ServeStale edge on a test clock with a scripted origin
// and a scripted defense.
type harness struct {
	t      *testing.T
	e      *HTTPEdge
	origin *scriptOrigin
	def    *scriptedDefense
	now    time.Time
	logs   []logfmt.Record
}

const (
	conformanceTTL  = time.Minute
	conformanceHost = "edge.test"
)

func newHarness(t *testing.T, cacheBytes int64) *harness {
	h := &harness{t: t, origin: &scriptOrigin{}, def: &scriptedDefense{}, now: time.Unix(1_700_000_000, 0)}
	h.e = &HTTPEdge{
		Cache:      NewCache(cacheBytes, conformanceTTL, 1),
		Origin:     h.origin,
		ServeStale: true,
		Defend:     h.def,
		Now:        func() time.Time { return h.now },
		Log:        func(r *logfmt.Record) { h.logs = append(h.logs, *r) },
	}
	return h
}

func (h *harness) serve(req *http.Request) observed {
	h.t.Helper()
	fetches, outcomes, logs := h.origin.fetches, len(h.def.outcomes), len(h.logs)
	rec := httptest.NewRecorder()
	h.e.ServeHTTP(rec, req)
	if len(h.logs) != logs+1 {
		h.t.Fatalf("%s %s: %d log records, want exactly 1", req.Method, req.URL, len(h.logs)-logs)
	}
	hdr, log := rec.Header(), h.logs[logs]
	got := observed{
		status: rec.Code, xCache: hdr.Get("X-Cache"), etag: hdr.Get("ETag"), age: hdr.Get("Age"),
		warning: hdr.Get("Warning"), retryAfter: hdr.Get("Retry-After"), bodyLen: rec.Body.Len(),
		loggedStatus: log.Status, loggedBytes: log.Bytes, loggedCache: log.Cache, loggedURL: log.URL,
		fetches: h.origin.fetches - fetches,
	}
	switch n := len(h.def.outcomes) - outcomes; n {
	case 0:
	case 1:
		got.outcome, got.outcomeCache = true, h.def.outcomes[outcomes]
	default:
		h.t.Fatalf("%s %s: RecordOutcome ran %d times", req.Method, req.URL, n)
	}
	return got
}

// do serves one origin-form request (what a socket delivers) for path on
// conformanceHost.
func (h *harness) do(method, path, ifNoneMatch string) observed {
	req := httptest.NewRequest(method, path, nil)
	req.Host = conformanceHost
	if ifNoneMatch != "" {
		req.Header.Set("If-None-Match", ifNoneMatch)
	}
	return h.serve(req)
}

// TestHTTPEdgeConformance is the edge's HTTP contract as one table:
// method × entry state × conditional × defense verdict, the full cross
// product, each case checked for status, X-Cache, ETag/Age/Warning/
// Retry-After, body length, the logged Bytes/Cache, the origin fetch
// count and whether RecordOutcome ran. What is expected is stated once,
// as rules, in want below.
func TestHTTPEdgeConformance(t *testing.T) {
	methods := []string{"GET", "HEAD", "POST"}
	states := []string{"absent", "fresh", "expired", "expired+failing", "uncacheable"}
	conditionals := []string{"none", "match", "list", "*", "mismatch"}
	verdicts := []string{"admit", "reject", "negative", "collapse"}

	const host = "http://" + conformanceHost
	const collapseKey = host + "/v1/offer/7"
	negBody := []byte(`{"error":"known bad"}`)
	reject := DefenseAction{Reject: true, RetryAfter: 7}
	negative := DefenseAction{Negative: true, NegStatus: 404, NegBody: negBody}

	for _, method := range methods {
		for _, state := range states {
			for _, cond := range conditionals {
				for _, verdict := range verdicts {
					name := fmt.Sprintf("%s/%s/%s/%s", method, state, cond, verdict)
					path := "/v1/offer/7?x=1"
					if state == "uncacheable" {
						path = "/ingest/ch7?x=1"
					}
					body, _, _, _ := (&WildcardOrigin{}).Fetch(path)
					etag := etagFor(body)

					h := newHarness(t, 1<<20)
					if verdict == "collapse" {
						h.def.act = DefenseAction{CollapseKey: collapseKey}
					}
					// Bring the entry into its state with one earlier GET.
					if state != "absent" {
						h.do("GET", path, "")
					}
					switch state {
					case "fresh":
						h.now = h.now.Add(time.Second)
					case "expired", "expired+failing":
						h.now = h.now.Add(conformanceTTL + 30*time.Second)
					}
					h.origin.down = state == "expired+failing"
					switch verdict {
					case "reject":
						h.def.act = reject
					case "negative":
						h.def.act = negative
					}
					inm := map[string]string{
						"none": "", "match": etag, "list": `"feedfacefeedface", W/` + etag,
						"*": "*", "mismatch": `"0000000000000000"`,
					}[cond]

					got := h.do(method, path, inm)

					// The rules.
					want := observed{loggedURL: host + path}
					admitted := verdict == "admit" || verdict == "collapse"
					full := len(body) // body length before HEAD/304 suppression
					switch {
					case verdict == "reject":
						want.status, want.retryAfter = 429, "7"
						want.loggedCache = logfmt.CacheUncacheable
						full = len(rejectResponse.body)
					case verdict == "negative":
						want.status, want.xCache = 404, "NEGATIVE"
						want.loggedCache = logfmt.CacheHit
						full = len(negBody)
					case method == "GET" && state == "fresh":
						want.status, want.xCache, want.etag = 200, "HIT", etag
						want.loggedCache = logfmt.CacheHit
					case method != "POST" && state == "expired+failing":
						// Answered from the entry still resident.
						want.status, want.xCache, want.etag, want.fetches = 200, "STALE", etag, 1
						want.age, want.warning = "90", `110 - "Response is Stale"`
						want.loggedCache = logfmt.CacheHit
					case state == "expired+failing":
						want.status, want.xCache, want.fetches = 503, "UNCACHEABLE", 1
						want.etag = unavailableResponse.etag
						want.loggedCache = logfmt.CacheUncacheable
						full = len(unavailableResponse.body)
					case method == "GET" && state != "uncacheable":
						want.status, want.xCache, want.etag, want.fetches = 200, "MISS", etag, 1
						want.loggedCache = logfmt.CacheMiss
					default:
						// HEAD always revalidates, POST always tunnels, and
						// the origin called the object uncacheable.
						want.status, want.xCache, want.etag, want.fetches = 200, "UNCACHEABLE", etag, 1
						want.loggedCache = logfmt.CacheUncacheable
					}
					// If-None-Match: GET and HEAD only, against a 200 with a
					// validator; weak comparison over the list, and "*".
					if want.status == 200 && method != "POST" && cond != "none" && cond != "mismatch" {
						want.status, full = 304, 0
					}
					if method == "HEAD" {
						full = 0
					}
					want.bodyLen, want.loggedBytes, want.loggedStatus = full, int64(full), want.status
					want.outcome = admitted
					if admitted {
						want.outcomeCache = want.loggedCache
					}
					if got != want {
						t.Errorf("%s\n got %+v\nwant %+v", name, got, want)
					}
				}
			}
		}
	}
}

// TestHTTPEdgeRetention: what an edge retains is what its cache holds —
// bounded by the cache's byte capacity, not by a count — so a HIT always
// has its body and a stale serve needs an entry still resident.
func TestHTTPEdgeRetention(t *testing.T) {
	const capacity = 16 << 10 // a WildcardOrigin object is 0.2–4.3 KiB
	h := newHarness(t, capacity)
	url := func(i int) string { return "/v1/article/" + strconv.Itoa(1000+i) }

	// One-hit wonders stream through: retained bytes never pass capacity.
	for i := 0; i < 500; i++ {
		if got := h.do("GET", url(i), ""); got.status != 200 || got.xCache != "MISS" {
			t.Fatalf("request %d = %d %s, want 200 MISS", i, got.status, got.xCache)
		}
		if b := h.e.Cache.Bytes(); b > capacity {
			t.Fatalf("after %d objects the edge retains %d bytes, capacity %d", i+1, b, capacity)
		}
	}
	if n := h.e.Cache.Len(); n < 3 || n > 80 {
		t.Errorf("%d entries resident, want what fits in %d bytes", n, capacity)
	}
	hits := h.e.Cache.Metrics().Hits

	// With the origin down, the most recent object is a HIT with its body
	// and no fetch; an evicted one has nothing to be stale from.
	h.origin.down = true
	want, _, _, _ := (&WildcardOrigin{}).Fetch("/v1/article/1499")
	if got := h.do("GET", url(499), ""); got.xCache != "HIT" || got.bodyLen != len(want) || got.fetches != 0 {
		t.Errorf("recent object = %+v, want a HIT of %d bytes without a fetch", got, len(want))
	}
	if got := h.do("GET", url(0), ""); got.status != 503 || got.xCache != "UNCACHEABLE" || got.fetches != 1 {
		t.Errorf("evicted object during outage = %+v, want 503 after one fetch", got)
	}

	// An evicted object is a plain miss: one fetch, no hit counted first.
	h.origin.down = false
	if got := h.do("GET", url(1), etagOf("/v1/article/1001")); got.status != 304 || got.xCache != "MISS" || got.fetches != 1 {
		t.Errorf("revalidating an evicted object = %+v, want 304 MISS after one fetch", got)
	}
	if got := h.e.Cache.Metrics().Hits; got != hits+1 {
		t.Errorf("cache hits = %d, want %d (only the recent object's)", got, hits+1)
	}
	if got := h.do("GET", url(1), etagOf("/v1/article/1001")); got.status != 304 || got.xCache != "HIT" || got.fetches != 0 {
		t.Errorf("revalidating it again = %+v, want 304 HIT", got)
	}

	// An expired entry stays resident — and stale-servable — until it is
	// evicted or overwritten.
	h.now = h.now.Add(conformanceTTL + time.Second)
	h.origin.down = true
	if got := h.do("GET", url(1), ""); got.xCache != "STALE" || got.age != "61" {
		t.Errorf("expired resident entry during outage = %+v, want STALE aged 61", got)
	}
	h.origin.down = false
	for i := 500; i < 600; i++ {
		h.do("GET", url(i), "")
	}
	h.origin.down = true
	if got := h.do("GET", url(1), ""); got.status != 503 {
		t.Errorf("expired entry after eviction = %+v, want 503", got)
	}
}

func etagOf(path string) string {
	body, _, _, _ := (&WildcardOrigin{}).Fetch(path)
	return etagFor(body)
}

// TestCacheKeyRequestForms: an origin-form request line ("GET /a?x=1",
// what sockets deliver) and an absolute-form one ("GET http://host/a?x=1",
// what httptest.NewRequest builds from a URL) for one object share one
// cache entry and log one URL.
func TestCacheKeyRequestForms(t *testing.T) {
	h := newHarness(t, 1<<20)
	const path, want = "/v1/offer/7?x=1", "http://" + conformanceHost + "/v1/offer/7?x=1"

	first := h.do("GET", path, "")
	second := h.serve(httptest.NewRequest("GET", want, nil))
	if first.xCache != "MISS" || second.xCache != "HIT" || second.fetches != 0 {
		t.Errorf("origin-form then absolute-form = %s then %s (%d fetches), want MISS then HIT",
			first.xCache, second.xCache, second.fetches)
	}
	if first.loggedURL != want || second.loggedURL != want {
		t.Errorf("logged URLs %q and %q, want %q twice", first.loggedURL, second.loggedURL, want)
	}
	if host := (&logfmt.Record{URL: second.loggedURL}).Host(); host != conformanceHost {
		t.Errorf("logged record's Host() = %q, want %q", host, conformanceHost)
	}
}
