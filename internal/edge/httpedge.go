package edge

import (
	"encoding/json"
	"errors"
	"fmt"
	"hash/fnv"
	"net"
	"net/http"
	"strconv"
	"strings"
	"time"

	"repro/internal/logfmt"
	"repro/internal/obs"
	"repro/internal/sched"
	"repro/internal/uastring"
)

// Origin supplies content for cache misses, abstracting the CDN
// customer's infrastructure.
type Origin interface {
	// Fetch returns the response body, MIME type, and whether the
	// object is configured cacheable.
	Fetch(path string) (body []byte, mime string, cacheable bool, err error)
}

// HTTPEdge is a real net/http caching edge server: requests are served
// from the embedded Cache when possible and fetched from the Origin
// otherwise, and every request is logged as a logfmt.Record — the same
// schema the analyses consume, so an HTTPEdge can feed its own traffic
// into the characterization pipeline (the liveedge example does).
//
// The Cache is the node's only store: each entry carries the response it
// stands for, so what the edge retains is bounded by the cache's byte
// capacity and a hit always has its body.
//
// The edge degrades rather than amplifies origin failure: with
// ServeStale set it answers a failed GET from the entry its cache still
// holds (with Age and Warning headers), and with Degraded wired to a
// circuit breaker it sheds machine-class requests with 503 instead of
// queueing them against a downed origin (internal/resilience supplies
// both the failure model and the breaker). HTTPEdge is safe for
// concurrent use.
type HTTPEdge struct {
	// Cache is the edge cache; required.
	Cache *Cache
	// Origin supplies misses; required. Wrap it in a
	// resilience.ResilientOrigin for retries, timeouts, and breaking.
	Origin Origin
	// Log, if non-nil, receives a record per request. The record is
	// freshly allocated per call and may be retained.
	Log func(*logfmt.Record)
	// Obs, if non-nil, receives request metrics: per-method request
	// counts, bytes served, origin fetch latency, 304 counts, stale
	// serves, and sheds. Wire it with Instrument, which also registers
	// the cache's metrics.
	Obs *Instrumentation
	// Trace, if non-nil, records one span per request (named
	// "METHOD /path", with method/path/status/cache attributes) and a
	// child span per origin fetch. The Trace's ring-buffer retention
	// bounds memory, so a long-lived edge keeps only the most recent
	// window of request spans.
	Trace *obs.Trace
	// Now supplies time (defaults to time.Now); tests override it.
	Now func() time.Time
	// ServeStale enables serve-stale-on-error: when the origin fails a
	// GET or HEAD and the cache still holds an entry for the key —
	// expired entries stay resident until evicted or overwritten — that
	// copy is served (200, X-Cache: STALE, an Age header, and the RFC
	// 7234 "110 Response is Stale" warning) instead of the error — how a
	// real CDN shields clients from origin brownouts.
	ServeStale bool
	// Degraded, if non-nil, reports that the origin path is degraded
	// (typically resilience.ResilientOrigin.Degraded, i.e. breaker
	// open). While degraded, requests ClassifyRequest calls
	// sched.ClassMachine that cannot be served from cache are shed with
	// 503: no human is waiting on them, and a recovering origin needs the
	// headroom.
	Degraded func() bool
	// Defend, if non-nil, is consulted before any cache or origin work:
	// it can reject the request outright (429), serve a negative-cache
	// response, or collapse the cache key (see Defense). Admitted
	// requests report their outcome back through RecordOutcome so the
	// defense's detectors stay current. internal/defend supplies the
	// standard detect-and-defend implementation.
	Defend Defense
}

func (e *HTTPEdge) now() time.Time {
	if e.Now != nil {
		return e.Now()
	}
	return time.Now()
}

// CacheKey is the key a request's response is cached under and the URL
// its log record carries. It is the only place a request becomes a key:
// HTTPEdge and internal/defend both call it, so the negative cache, the
// collapse rewrite and the edge cache cannot disagree about which
// requests are the same object. RequestURI, not String: an absolute-form
// request line ("GET http://host/a") carries the authority in r.URL too,
// and must key like the origin-form request for the same object.
func CacheKey(r *http.Request) string {
	return "http://" + r.Host + r.URL.RequestURI()
}

// ClassifyRequest is the shed classifier, reusing the scheduler's
// taxonomy (§7): telemetry ingest, non-GET methods, and embedded-device
// user agents are machine-to-machine — no human is waiting — and
// everything else is human.
func ClassifyRequest(r *http.Request) sched.Class {
	if r.Method != http.MethodGet && r.Method != http.MethodHead {
		return sched.ClassMachine
	}
	if strings.HasPrefix(r.URL.Path, "/ingest/") {
		return sched.ClassMachine
	}
	if uastring.Classify(r.UserAgent()).Device == uastring.DeviceEmbedded {
		return sched.ClassMachine
	}
	return sched.ClassHuman
}

// isTemporary reports whether an origin error is transient (it
// implements Temporary() bool, as resilience errors do): the edge
// answers 503 rather than 404 and may serve stale.
func isTemporary(err error) bool {
	var t interface{ Temporary() bool }
	return errors.As(err, &t) && t.Temporary()
}

// disposition names how a request was answered. Everything respond needs
// to know beyond the response itself follows from it.
type disposition uint8

const (
	uncacheable disposition = iota // from origin, not stored
	miss                           // from origin, stored
	hit                            // from a fresh entry
	stale                          // from a resident entry after the origin failed
	negative                       // remembered error, by the defense's verdict
	rejected                       // refused by the defense
	shedded                        // refused while the origin path is degraded
)

var dispositions = [...]struct {
	xCache   string // X-Cache header; "" sends none
	span     string // the request span's cache attribute
	logged   logfmt.CacheStatus
	admitted bool // the defense admitted it, so it hears the outcome
}{
	uncacheable: {"UNCACHEABLE", "UNCACHEABLE", logfmt.CacheUncacheable, true},
	miss:        {"MISS", "MISS", logfmt.CacheMiss, true},
	hit:         {"HIT", "HIT", logfmt.CacheHit, true},
	stale:       {"STALE", "STALE", logfmt.CacheHit, true},
	negative:    {"NEGATIVE", "defend-negative", logfmt.CacheHit, false},
	rejected:    {"", "defend-reject", logfmt.CacheUncacheable, false},
	shedded:     {"", "shed", logfmt.CacheUncacheable, true},
}

// response is what the stages fill in and respond writes out.
type response struct {
	disp       disposition
	status     int
	body       []byte
	mime       string
	etag       string        // "" on the refusals, which carry no validator
	age        time.Duration // of a stale copy
	retryAfter int           // seconds; 0 sends no Retry-After
}

const jsonMIME = "application/json"

// errorResponse is a fixed JSON error body under disp.
func errorResponse(disp disposition, status int, body string, retryAfter int) response {
	return response{disp: disp, status: status, body: []byte(body), mime: jsonMIME, retryAfter: retryAfter}
}

var (
	rejectResponse = errorResponse(rejected, http.StatusTooManyRequests, `{"error":"rate limited"}`, 0)
	shedResponse   = errorResponse(shedded, http.StatusServiceUnavailable, `{"error":"shedding load"}`, 1)
	// Origin failures are responses like any other and carry a validator.
	unavailableResponse = originError(http.StatusServiceUnavailable, `{"error":"origin unavailable"}`)
	notFoundResponse    = originError(http.StatusNotFound, `{"error":"not found"}`)
)

func originError(status int, body string) response {
	resp := errorResponse(uncacheable, status, body, 0)
	resp.etag = etagFor(resp.body)
	return resp
}

// cached is the payload an HTTPEdge keeps in its Cache: one origin
// response, its validator hashed once per fetch.
type cached struct {
	body     []byte
	mime     string
	etag     string
	storedAt time.Time
}

func (c *cached) response(disp disposition) response {
	return response{disp: disp, status: http.StatusOK, body: c.body, mime: c.mime, etag: c.etag}
}

// exchange is one request on its way through the stages.
type exchange struct {
	r     *http.Request
	now   time.Time
	reqSp *obs.Span
	// url is what the client asked for and what the log records; key is
	// what the cache holds it under, which a defense may collapse.
	url, key string
	// held is the entry lookup found resident, fresh or expired: what
	// serve-stale answers from if the fetch fails.
	held *cached
	// fetched is the origin's answer, storable when it said cacheable to
	// a GET.
	fetched  *cached
	storable bool
	resp     response
}

// ServeHTTP implements http.Handler. Each stage either answers the
// request — fills x.resp and reports true — or passes it on; respond is
// the only exit.
func (e *HTTPEdge) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	x := exchange{r: r, now: e.now(), url: CacheKey(r)}
	x.key = x.url
	if e.Trace != nil {
		x.reqSp = e.Trace.Start(r.Method + " " + r.URL.Path)
		x.reqSp.SetAttrs(obs.String("method", r.Method), obs.String("path", r.URL.Path))
	}
	_ = e.admit(&x) || e.lookup(&x) || e.shed(&x) || e.fetch(&x) || e.store(&x)
	e.respond(w, &x)
}

// admit asks the defense, which may refuse the request, answer it from
// its negative cache, or collapse the cache key.
func (e *HTTPEdge) admit(x *exchange) bool {
	if e.Defend == nil {
		return false
	}
	act := e.Defend.Admit(x.now, x.r)
	switch {
	case act.Reject:
		x.resp = rejectResponse
		x.resp.retryAfter = act.RetryAfter
		return true
	case act.Negative:
		x.resp = response{disp: negative, status: act.NegStatus, body: act.NegBody, mime: act.NegMIME}
		if x.resp.status == 0 {
			x.resp.status = http.StatusNotFound
		}
		if x.resp.mime == "" {
			x.resp.mime = jsonMIME
		}
		return true
	}
	if act.CollapseKey != "" {
		x.key = act.CollapseKey
	}
	return false
}

// lookup reads the cache once. A GET is answered from a fresh entry; a
// HEAD always revalidates at the origin and only looks, so that it too
// has a copy to fall back on. Other methods never touch the cache.
func (e *HTTPEdge) lookup(x *exchange) bool {
	use := Demand
	switch x.r.Method {
	case http.MethodGet:
	case http.MethodHead:
		use = Probe
	default:
		return false
	}
	got := e.Cache.Read(x.key, x.now, use)
	x.held, _ = got.Payload.(*cached)
	if use == Probe || got.State != Fresh || x.held == nil {
		return false
	}
	x.resp = x.held.response(hit)
	return true
}

// shed refuses, while the origin path is degraded, the machine-class
// requests that would need the origin.
func (e *HTTPEdge) shed(x *exchange) bool {
	if e.Degraded == nil || !e.Degraded() || ClassifyRequest(x.r) != sched.ClassMachine {
		return false
	}
	x.resp = shedResponse
	return true
}

// fetch asks the origin. A failure is answered here: from the held copy
// when ServeStale allows, else with the error.
func (e *HTTPEdge) fetch(x *exchange) bool {
	var fetchStart time.Time
	if e.Obs != nil {
		// Origin latency is real wall time even when e.Now is a test
		// clock: Now models the cache's notion of time, not elapsed
		// fetch cost.
		fetchStart = time.Now()
	}
	fsp := x.reqSp.Child("origin fetch")
	// The query string travels to the origin: query-varying objects
	// (conversion parameters, API arguments) are distinct resources,
	// which is exactly what cache-busting storms exploit.
	path := x.r.URL.Path
	if x.r.URL.RawQuery != "" {
		path += "?" + x.r.URL.RawQuery
	}
	body, mime, cacheable, err := e.Origin.Fetch(path)
	fsp.AddBytes(int64(len(body)))
	if err != nil {
		fsp.SetAttrs(obs.Bool("error", true))
	}
	fsp.End()
	if e.Obs != nil {
		e.Obs.OriginFetch.RecordDuration(time.Since(fetchStart))
		if err != nil {
			e.Obs.OriginErrors.Inc()
		}
	}
	switch {
	case err == nil:
		x.fetched = &cached{body: body, mime: mime, etag: etagFor(body), storedAt: x.now}
		x.storable = cacheable && x.r.Method == http.MethodGet
		return false
	case e.ServeStale && x.held != nil:
		x.resp = x.held.response(stale)
		x.resp.age = x.now.Sub(x.held.storedAt)
	case isTemporary(err):
		x.resp = unavailableResponse
	default:
		x.resp = notFoundResponse
	}
	return true
}

// store answers with what fetch brought back, keeping it when storable.
func (e *HTTPEdge) store(x *exchange) bool {
	x.resp = x.fetched.response(uncacheable)
	if x.storable {
		x.resp.disp = miss
		e.Cache.Store(x.key, int64(len(x.fetched.body)), x.now, x.fetched)
	}
	return true
}

// notModified evaluates If-None-Match against the response's validator
// (RFC 7232 §3.2): on GET and HEAD only, over every listed entity-tag
// with the weak comparison, "*" matching any current representation.
func notModified(r *http.Request, etag string) bool {
	if etag == "" || (r.Method != http.MethodGet && r.Method != http.MethodHead) {
		return false
	}
	for _, list := range r.Header.Values("If-None-Match") {
		for list != "" {
			var tag string
			tag, list, _ = strings.Cut(list, ",")
			tag = strings.TrimSpace(tag)
			if tag == "*" || strings.TrimPrefix(tag, "W/") == etag {
				return true
			}
		}
	}
	return false
}

// respond is the only exit: it writes the headers, status and body,
// emits the log record, closes the request span, counts the request and
// tells the defense how an admitted request ended.
func (e *HTTPEdge) respond(w http.ResponseWriter, x *exchange) {
	r, resp, disp := x.r, &x.resp, &dispositions[x.resp.disp]
	status, body := resp.status, resp.body
	h := w.Header()
	if resp.etag != "" {
		h.Set("ETag", resp.etag)
	}
	if disp.xCache != "" {
		h.Set("X-Cache", disp.xCache)
	}
	if resp.disp == stale {
		h.Set("Age", strconv.Itoa(int(resp.age/time.Second)))
		h.Set("Warning", `110 - "Response is Stale"`)
	}
	if resp.retryAfter > 0 {
		h.Set("Retry-After", strconv.Itoa(resp.retryAfter))
	}
	// Conditional requests: a matching validator short-circuits the body
	// with 304, the flow real CDN edges serve for revalidating clients.
	if status == http.StatusOK && notModified(r, resp.etag) {
		status, body = http.StatusNotModified, nil
	} else {
		h.Set("Content-Type", resp.mime)
		h.Set("Content-Length", strconv.Itoa(len(body)))
	}
	if r.Method == http.MethodHead {
		body = nil
	}
	w.WriteHeader(status)
	if len(body) > 0 {
		w.Write(body)
	}
	written := int64(len(body))

	if e.Log != nil {
		e.Log(&logfmt.Record{
			Time:      x.now,
			ClientID:  logfmt.HashClientIP(ClientHost(r.RemoteAddr)),
			Method:    r.Method,
			URL:       x.url,
			UserAgent: r.UserAgent(),
			MIMEType:  resp.mime,
			Status:    status,
			Bytes:     written,
			Cache:     disp.logged,
		})
	}
	x.reqSp.AddBytes(written)
	x.reqSp.SetAttrs(obs.Int("status", status), obs.String("cache", disp.span))
	x.reqSp.End()
	if o := e.Obs; o != nil {
		o.requests(r.Method).Inc()
		o.BytesServed.Add(written)
		if status == http.StatusNotModified {
			o.NotModified.Inc()
		}
		switch resp.disp {
		case stale:
			o.StaleServes.Inc()
		case shedded:
			o.ShedMachine.Inc()
		}
	}
	if e.Defend != nil && disp.admitted {
		e.Defend.RecordOutcome(x.now, r, disp.logged, status)
	}
}

// ClientHost returns the host part of an http.Request.RemoteAddr — the
// string the log and the defense hash into a client identity. An IPv6
// "[addr]:port" yields addr whole; an address without a port is returned
// as it is.
func ClientHost(remoteAddr string) string {
	host, _, err := net.SplitHostPort(remoteAddr)
	if err != nil {
		return remoteAddr
	}
	return host
}

// etagFor derives a strong validator from the body.
func etagFor(body []byte) string {
	h := fnv.New64a()
	h.Write(body)
	var buf [18]byte
	b := append(buf[:0], '"')
	b = appendHex16(b, h.Sum64())
	return string(append(b, '"'))
}

// JSONOrigin is a synthetic origin that serves the manifest pattern of
// the paper's Table 1: /stories returns a JSON manifest referencing
// /article/<id> objects, which return article bodies. Telemetry paths
// under /ingest/ accept POSTs and are uncacheable. JSONOrigin is safe
// for concurrent use.
type JSONOrigin struct {
	// Articles is the number of article objects (default 100).
	Articles int
	// Latency simulates origin round-trip delay per fetch.
	Latency time.Duration
}

func (o *JSONOrigin) articles() int {
	if o.Articles <= 0 {
		return 100
	}
	return o.Articles
}

// Fetch implements Origin. Query strings are ignored for routing: the
// manifest application serves the same object for every query variant.
func (o *JSONOrigin) Fetch(path string) ([]byte, string, bool, error) {
	if o.Latency > 0 {
		time.Sleep(o.Latency)
	}
	if i := strings.IndexByte(path, '?'); i >= 0 {
		path = path[:i]
	}
	switch {
	case path == "/stories":
		type story struct {
			ID    int    `json:"article_id"`
			Title string `json:"article_title"`
			Image string `json:"image_url"`
		}
		n := o.articles()
		list := make([]story, 0, 10)
		for i := 0; i < 10 && i < n; i++ {
			list = append(list, story{
				ID:    1000 + i,
				Title: fmt.Sprintf("Story %d", i),
				Image: fmt.Sprintf("/media/image%d.jpg", 1000+i),
			})
		}
		b, err := json.Marshal(list)
		return b, "application/json", true, err
	case strings.HasPrefix(path, "/article/"):
		idStr := strings.TrimPrefix(path, "/article/")
		id, err := strconv.Atoi(idStr)
		if err != nil || id < 1000 || id >= 1000+o.articles() {
			return nil, "", false, fmt.Errorf("edge: no article %q", idStr)
		}
		doc := map[string]interface{}{
			"article": fmt.Sprintf("Lorem ipsum dolor %d...", id),
			"video":   fmt.Sprintf("/media/video%d.mp4", id),
			"images":  []string{fmt.Sprintf("/media/image%d.jpg", id)},
		}
		b, err := json.Marshal(doc)
		return b, "application/json", true, err
	case strings.HasPrefix(path, "/ingest/"):
		return []byte(`{"ok":true}`), "application/json", false, nil
	case strings.HasPrefix(path, "/profile/"):
		// Personalized: uncacheable.
		b := []byte(`{"user":"` + strings.TrimPrefix(path, "/profile/") + `","plan":"pro"}`)
		return b, "application/json", false, nil
	default:
		return nil, "", false, fmt.Errorf("edge: no route %q", path)
	}
}
