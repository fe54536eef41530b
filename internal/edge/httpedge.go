package edge

import (
	"container/list"
	"encoding/json"
	"errors"
	"fmt"
	"hash/fnv"
	"net"
	"net/http"
	"strconv"
	"strings"
	"sync"
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
// The edge degrades rather than amplifies origin failure: with
// ServeStale set it answers a failed GET from its retained body store
// (with Age and Warning headers), and with Degraded wired to a circuit
// breaker it sheds machine-class requests with 503 instead of queueing
// them against a downed origin (internal/resilience supplies both the
// failure model and the breaker). HTTPEdge is safe for concurrent use.
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
	// GET or HEAD and a previously fetched copy is still in the body
	// store, that copy is served (200, X-Cache: STALE, an Age header,
	// and the RFC 7234 "110 Response is Stale" warning) instead of the
	// error — how a real CDN shields clients from origin brownouts.
	ServeStale bool
	// Degraded, if non-nil, reports that the origin path is degraded
	// (typically resilience.ResilientOrigin.Degraded, i.e. breaker
	// open). While degraded, requests classified sched.ClassMachine
	// that cannot be served from cache are shed with 503: no human is
	// waiting on them, and a recovering origin needs the headroom.
	Degraded func() bool
	// Classify maps a request to its sched class for shedding; nil uses
	// ClassifyRequest.
	Classify func(*http.Request) sched.Class
	// Defend, if non-nil, is consulted before any cache or origin work:
	// it can reject the request outright (429), serve a negative-cache
	// response, or collapse the cache key (see Defense). Admitted
	// requests report their outcome back through RecordOutcome so the
	// defense's detectors stay current. internal/defend supplies the
	// standard detect-and-defend implementation.
	Defend Defense
	// MaxBodies bounds the retained response bodies (default 65536);
	// beyond it the least recently used body is evicted.
	MaxBodies int

	mu      sync.Mutex
	bodies  map[string]*storedBody
	bodyLRU *list.List // front = most recent
}

const maxBodyStore = 1 << 16

// storedBody is one retained response body. Bodies outlive their cache
// entry's TTL on purpose: an expired body is exactly what the
// serve-stale path needs when the origin is down.
type storedBody struct {
	body     []byte
	mime     string
	etag     string // etagFor(body), hashed once per fetch, not per response
	storedAt time.Time
	key      string
	elem     *list.Element
}

func (e *HTTPEdge) now() time.Time {
	if e.Now != nil {
		return e.Now()
	}
	return time.Now()
}

func (e *HTTPEdge) maxBodies() int {
	if e.MaxBodies > 0 {
		return e.MaxBodies
	}
	return maxBodyStore
}

// storeBody retains a response body for later hits and stale serves,
// evicting the least recently used entry past MaxBodies.
func (e *HTTPEdge) storeBody(key string, body []byte, mime, etag string, now time.Time) {
	e.mu.Lock()
	defer e.mu.Unlock()
	if e.bodies == nil {
		e.bodies = make(map[string]*storedBody)
		e.bodyLRU = list.New()
	}
	if sb, ok := e.bodies[key]; ok {
		sb.body, sb.mime, sb.etag, sb.storedAt = body, mime, etag, now
		e.bodyLRU.MoveToFront(sb.elem)
		return
	}
	sb := &storedBody{body: body, mime: mime, etag: etag, storedAt: now, key: key}
	sb.elem = e.bodyLRU.PushFront(sb)
	e.bodies[key] = sb
	for len(e.bodies) > e.maxBodies() {
		back := e.bodyLRU.Back()
		if back == nil {
			break
		}
		victim := back.Value.(*storedBody)
		e.bodyLRU.Remove(back)
		delete(e.bodies, victim.key)
	}
}

// loadBody returns the retained body for key, refreshing its recency.
func (e *HTTPEdge) loadBody(key string) (*storedBody, bool) {
	e.mu.Lock()
	defer e.mu.Unlock()
	sb, ok := e.bodies[key]
	if ok {
		e.bodyLRU.MoveToFront(sb.elem)
	}
	return sb, ok
}

// storedBodies returns the number of retained bodies (tests assert the
// MaxBodies bound holds).
func (e *HTTPEdge) storedBodies() int {
	e.mu.Lock()
	defer e.mu.Unlock()
	return len(e.bodies)
}

// ClassifyRequest is the default shed classifier, reusing the
// scheduler's taxonomy (§7): telemetry ingest, non-GET methods, and
// embedded-device user agents are machine-to-machine — no human is
// waiting — and everything else is human.
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

func (e *HTTPEdge) classify(r *http.Request) sched.Class {
	if e.Classify != nil {
		return e.Classify(r)
	}
	return ClassifyRequest(r)
}

// isTemporary reports whether an origin error is transient (it
// implements Temporary() bool, as resilience errors do): the edge
// answers 503 rather than 404 and may serve stale.
func isTemporary(err error) bool {
	var t interface{ Temporary() bool }
	return errors.As(err, &t) && t.Temporary()
}

// ServeHTTP implements http.Handler.
func (e *HTTPEdge) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	now := e.now()
	var reqSp *obs.Span
	if e.Trace != nil {
		reqSp = e.Trace.Start(r.Method + " " + r.URL.Path)
		reqSp.SetAttrs(obs.String("method", r.Method), obs.String("path", r.URL.Path))
	}
	// reqURL is what the client asked for and what the log records; key is
	// what the cache holds it under, which a defense may collapse.
	reqURL := "http://" + r.Host + r.URL.String()
	key := reqURL
	status := http.StatusOK
	var body []byte
	var mime, etag string
	cacheStatus := logfmt.CacheUncacheable
	stale := false

	if e.Defend != nil {
		act := e.Defend.Admit(now, r)
		switch {
		case act.Reject:
			if e.Obs != nil {
				e.Obs.requests(r.Method).Inc()
			}
			w.Header().Set("Content-Type", "application/json")
			if act.RetryAfter > 0 {
				w.Header().Set("Retry-After", strconv.Itoa(act.RetryAfter))
			}
			w.WriteHeader(http.StatusTooManyRequests)
			rejBody := []byte(`{"error":"rate limited"}`)
			if r.Method != http.MethodHead {
				w.Write(rejBody)
			}
			if e.Log != nil {
				e.logRequest(r, reqURL, now, "application/json", http.StatusTooManyRequests, int64(len(rejBody)), logfmt.CacheUncacheable)
			}
			reqSp.SetAttrs(obs.Int("status", http.StatusTooManyRequests), obs.String("cache", "defend-reject"))
			reqSp.End()
			return
		case act.Negative:
			if e.Obs != nil {
				e.Obs.requests(r.Method).Inc()
			}
			negStatus, negMIME := act.NegStatus, act.NegMIME
			if negStatus == 0 {
				negStatus = http.StatusNotFound
			}
			if negMIME == "" {
				negMIME = "application/json"
			}
			w.Header().Set("Content-Type", negMIME)
			w.Header().Set("X-Cache", "NEGATIVE")
			w.WriteHeader(negStatus)
			if r.Method != http.MethodHead {
				w.Write(act.NegBody)
			}
			if e.Log != nil {
				e.logRequest(r, reqURL, now, negMIME, negStatus, int64(len(act.NegBody)), logfmt.CacheHit)
			}
			reqSp.SetAttrs(obs.Int("status", negStatus), obs.String("cache", "defend-negative"))
			reqSp.End()
			return
		}
		if act.CollapseKey != "" {
			key = act.CollapseKey
		}
	}

	serveFromCache := r.Method == http.MethodGet && e.Cache.Lookup(key, now)
	if serveFromCache {
		if sb, ok := e.loadBody(key); ok {
			body, mime, etag, cacheStatus = sb.body, sb.mime, sb.etag, logfmt.CacheHit
		} else {
			serveFromCache = false // evicted body; refetch below
		}
	}
	if e.Obs != nil {
		e.Obs.requests(r.Method).Inc()
	}
	if !serveFromCache {
		// Load-shed while the origin path is degraded: machine-class
		// requests that would need the origin get a 503 immediately.
		if e.Degraded != nil && e.Degraded() {
			if class := e.classify(r); class == sched.ClassMachine {
				if e.Obs != nil {
					e.Obs.shed(class).Inc()
				}
				w.Header().Set("Content-Type", "application/json")
				w.Header().Set("Retry-After", "1")
				w.WriteHeader(http.StatusServiceUnavailable)
				shedBody := []byte(`{"error":"shedding load"}`)
				if r.Method != http.MethodHead {
					w.Write(shedBody)
				}
				if e.Log != nil {
					e.logRequest(r, reqURL, now, "application/json", http.StatusServiceUnavailable, int64(len(shedBody)), logfmt.CacheUncacheable)
				}
				reqSp.SetAttrs(obs.Int("status", http.StatusServiceUnavailable), obs.String("cache", "shed"))
				reqSp.End()
				e.recordOutcome(now, r, logfmt.CacheUncacheable, http.StatusServiceUnavailable)
				return
			}
		}
		var fetchStart time.Time
		if e.Obs != nil {
			// Origin latency is real wall time even when e.Now is a test
			// clock: Now models the cache's notion of time, not elapsed
			// fetch cost.
			fetchStart = time.Now()
		}
		fsp := reqSp.Child("origin fetch")
		// The query string travels to the origin: query-varying objects
		// (conversion parameters, API arguments) are distinct resources,
		// which is exactly what cache-busting storms exploit.
		fetchPath := r.URL.Path
		if r.URL.RawQuery != "" {
			fetchPath += "?" + r.URL.RawQuery
		}
		b, m, cacheable, err := e.Origin.Fetch(fetchPath)
		fsp.AddBytes(int64(len(b)))
		if err != nil {
			fsp.SetAttrs(obs.Bool("error", true))
		}
		fsp.End()
		if e.Obs != nil {
			e.Obs.OriginFetch.Observe(time.Since(fetchStart).Seconds())
			if err != nil {
				e.Obs.OriginErrors.Inc()
			}
		}
		if err != nil {
			// Serve-stale degradation: a retained copy beats an error.
			if e.ServeStale && (r.Method == http.MethodGet || r.Method == http.MethodHead) {
				if sb, ok := e.loadBody(key); ok {
					body, mime, etag, cacheStatus = sb.body, sb.mime, sb.etag, logfmt.CacheHit
					stale = true
					if e.Obs != nil {
						e.Obs.StaleServes.Inc()
					}
					w.Header().Set("Age", strconv.Itoa(int(now.Sub(sb.storedAt)/time.Second)))
					w.Header().Set("Warning", `110 - "Response is Stale"`)
				}
			}
			if !stale {
				if isTemporary(err) {
					status = http.StatusServiceUnavailable
					b, m = []byte(`{"error":"origin unavailable"}`), "application/json"
				} else {
					status = http.StatusNotFound
					b, m = []byte(`{"error":"not found"}`), "application/json"
				}
				cacheable = false
				body, mime, etag = b, m, etagFor(b)
			}
		} else {
			body, mime, etag = b, m, etagFor(b)
			switch {
			case !cacheable || r.Method != http.MethodGet:
				cacheStatus = logfmt.CacheUncacheable
			default:
				cacheStatus = logfmt.CacheMiss
				e.Cache.Insert(key, int64(len(body)), now, false)
				e.storeBody(key, body, mime, etag, now)
			}
		}
	}

	// Conditional requests: a matching If-None-Match short-circuits the
	// body with 304, the validation flow real CDN edges serve for
	// revalidating clients.
	if status == http.StatusOK && r.Header.Get("If-None-Match") == etag {
		w.Header().Set("ETag", etag)
		w.Header().Set("X-Cache", cacheLabel(cacheStatus, stale))
		w.WriteHeader(http.StatusNotModified)
		if e.Obs != nil {
			e.Obs.NotModified.Inc()
		}
		if e.Log != nil {
			e.logRequest(r, reqURL, now, mime, http.StatusNotModified, 0, cacheStatus)
		}
		reqSp.SetAttrs(obs.Int("status", http.StatusNotModified), obs.String("cache", cacheLabel(cacheStatus, stale)))
		reqSp.End()
		e.recordOutcome(now, r, cacheStatus, http.StatusNotModified)
		return
	}

	w.Header().Set("Content-Type", mime)
	w.Header().Set("ETag", etag)
	w.Header().Set("X-Cache", cacheLabel(cacheStatus, stale))
	w.Header().Set("Content-Length", strconv.Itoa(len(body)))
	w.WriteHeader(status)
	if r.Method != http.MethodHead {
		w.Write(body)
		if e.Obs != nil {
			e.Obs.BytesServed.Add(int64(len(body)))
		}
	}

	if e.Log != nil {
		e.logRequest(r, reqURL, now, mime, status, int64(len(body)), cacheStatus)
	}
	reqSp.AddBytes(int64(len(body)))
	reqSp.SetAttrs(obs.Int("status", status), obs.String("cache", cacheLabel(cacheStatus, stale)))
	reqSp.End()
	e.recordOutcome(now, r, cacheStatus, status)
}

// recordOutcome feeds an admitted request's result back to the defense.
func (e *HTTPEdge) recordOutcome(now time.Time, r *http.Request, cache logfmt.CacheStatus, status int) {
	if e.Defend != nil {
		e.Defend.RecordOutcome(now, r, cache, status)
	}
}

// cacheLabel renders the X-Cache header value.
func cacheLabel(s logfmt.CacheStatus, stale bool) string {
	if stale {
		return "STALE"
	}
	switch s {
	case logfmt.CacheHit:
		return "HIT"
	case logfmt.CacheMiss:
		return "MISS"
	default:
		return "UNCACHEABLE"
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

// logRequest emits the record of one request; url is the full URL as
// requested, before any cache-key collapse.
func (e *HTTPEdge) logRequest(r *http.Request, url string, now time.Time, mime string, status int, size int64, cache logfmt.CacheStatus) {
	e.Log(&logfmt.Record{
		Time:      now,
		ClientID:  logfmt.HashClientIP(ClientHost(r.RemoteAddr)),
		Method:    r.Method,
		URL:       url,
		UserAgent: r.UserAgent(),
		MIMEType:  mime,
		Status:    status,
		Bytes:     size,
		Cache:     cache,
	})
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
