// Package fleet is the front tier of a multi-process edge fleet: an
// HTTP router that spreads requests over N live edge nodes (liveedge
// processes) with the same consistent-hash ring the in-process
// edge.Pool uses, so an object always lands on the node whose cache
// already holds it. The paper's deployment shape is an Akamai-style
// hierarchy of many edge servers; this package is the layer that makes
// that shape survivable:
//
//   - active health checking: every node is probed periodically and
//     carried through a three-state machine (up → suspect → down);
//     down members leave the ring, so no key routes to a dead node,
//     and rejoining members earn their way back with consecutive
//     healthy probes;
//   - automatic rebalancing: ring membership follows health, so a
//     node's keys remap to its ring successors (~1/N of the keyspace)
//     the moment it is declared down, and remap back on rejoin;
//   - bounded failover: a connect error or 5xx forwards the request to
//     the next distinct ring replica, up to Config.MaxFailover extra
//     attempts — this is what keeps the error rate flat during the
//     detection window between a crash and the health checker noticing;
//   - tail-latency hedging: optionally, a GET that outlives a
//     p99-derived delay fires a second copy at the next replica and the
//     first response wins (the loser is canceled) — the classic
//     tail-at-scale discipline.
//
// The router is deliberately cache-oblivious: nodes own their caches
// and defenses; the front tier owns placement, liveness, and retries.
package fleet

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"net/http"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/edge"
	"repro/internal/obs"
)

// MemberState is the health checker's verdict on one node.
type MemberState int32

const (
	// StateUp: serving and in the ring.
	StateUp MemberState = iota
	// StateSuspect: failed recent probes but not yet evicted; still in
	// the ring (a single dropped probe must not reshuffle the keyspace).
	StateSuspect
	// StateDown: evicted from the ring; no key routes here until the
	// node earns its way back with consecutive healthy probes.
	StateDown
)

func (s MemberState) String() string {
	switch s {
	case StateUp:
		return "up"
	case StateSuspect:
		return "suspect"
	default:
		return "down"
	}
}

// Member is one edge node as the front tier sees it.
type Member struct {
	// Name identifies the node on the ring ("edge-00"); it must be
	// stable across restarts or the rejoining node inherits a
	// different keyspace slice.
	Name string
	// URL is the node's traffic base URL ("http://127.0.0.1:4123").
	URL string
	// HealthURL is the liveness probe target, typically the node's
	// admin "/healthz". Empty disables probing for this member (it is
	// pinned up — useful in tests).
	HealthURL string

	state atomic.Int32
	// fails/oks are consecutive probe outcomes, owned by the health
	// checker goroutine.
	fails, oks int
}

// State returns the member's current health state.
func (m *Member) State() MemberState { return MemberState(m.state.Load()) }

// MemberStatus is a point-in-time snapshot for reports and tests.
type MemberStatus struct {
	Name  string      `json:"name"`
	URL   string      `json:"url"`
	State MemberState `json:"-"`
	// StateName is State rendered for JSON reports.
	StateName string `json:"state"`
	Requests  int64  `json:"requests"`
}

// Config tunes the front tier. The zero value gets working defaults
// from withDefaults.
type Config struct {
	// Probe is the health-check period (default 200ms); ProbeTimeout
	// bounds one probe (default 500ms) — a node slower than this is as
	// good as dead to the fleet.
	Probe        time.Duration
	ProbeTimeout time.Duration
	// SuspectAfter / DownAfter / UpAfter are the consecutive-probe
	// thresholds of the three-state machine (defaults 1, 3, 2).
	SuspectAfter int
	DownAfter    int
	UpAfter      int
	// MaxFailover is how many extra ring replicas a request may try
	// after a connect error or 5xx (default 2; 0 disables failover —
	// the negative control scripts/chaos-check.sh uses to prove the
	// availability gate bites).
	MaxFailover int
	// Hedge enables tail-latency hedging for GETs: when the primary
	// attempt outlives the hedge delay, a second copy goes to the next
	// ring replica and the first response wins.
	Hedge bool
	// HedgeQuantile is the observed-latency quantile the hedge delay
	// tracks (default 0.99); HedgeMin floors it (default 10ms) so a
	// warm cache does not hedge every request.
	HedgeQuantile float64
	HedgeMin      time.Duration
	// Timeout bounds one proxied attempt (default 5s).
	Timeout time.Duration
	// Transport optionally overrides the proxy transport.
	Transport http.RoundTripper
	// Logger, when non-nil, receives member state transitions and
	// drain events.
	Logger *obs.Logger
}

func (c Config) withDefaults() Config {
	if c.Probe <= 0 {
		c.Probe = 200 * time.Millisecond
	}
	if c.ProbeTimeout <= 0 {
		c.ProbeTimeout = 500 * time.Millisecond
	}
	if c.SuspectAfter <= 0 {
		c.SuspectAfter = 1
	}
	if c.DownAfter <= 0 {
		c.DownAfter = 3
	}
	if c.DownAfter < c.SuspectAfter {
		c.DownAfter = c.SuspectAfter
	}
	if c.UpAfter <= 0 {
		c.UpAfter = 2
	}
	if c.MaxFailover < 0 {
		c.MaxFailover = 0
	}
	if c.HedgeQuantile <= 0 || c.HedgeQuantile >= 1 {
		c.HedgeQuantile = 0.99
	}
	if c.HedgeMin <= 0 {
		c.HedgeMin = 10 * time.Millisecond
	}
	if c.Timeout <= 0 {
		c.Timeout = 5 * time.Second
	}
	return c
}

// Fleet is the front-tier router. Create with New, then StartHealth to
// begin probing; it implements http.Handler.
type Fleet struct {
	cfg    Config
	ring   *edge.Ring
	client *http.Client

	mu      sync.RWMutex
	members map[string]*Member
	order   []string // registration order, for stable snapshots

	// lat is the rolling proxied-latency distribution the hedge delay
	// derives from (service time of successful primary attempts).
	lat *obs.HDRHistogram

	inst     *Instrumentation
	draining atomic.Bool

	checkerStop chan struct{}
	// checkerDone is closed by the checker goroutine on exit;
	// checkerStarted says whether there is one to wait for.
	checkerDone    chan struct{}
	checkerStarted atomic.Bool
	checkerCancel  sync.Once
}

// New builds a fleet over the given members. All members start up and
// in the ring; the health checker demotes the ones that fail probes.
func New(cfg Config, members ...*Member) *Fleet {
	cfg = cfg.withDefaults()
	f := &Fleet{
		cfg:         cfg,
		ring:        edge.NewRing(0),
		members:     make(map[string]*Member, len(members)),
		lat:         obs.NewHDRHistogram(obs.LatencyHDRConfig()),
		checkerStop: make(chan struct{}),
		checkerDone: make(chan struct{}),
	}
	transport := cfg.Transport
	if transport == nil {
		t := http.DefaultTransport.(*http.Transport).Clone()
		t.MaxIdleConnsPerHost = 256
		transport = t
	}
	f.client = &http.Client{Transport: transport, Timeout: cfg.Timeout}
	for _, m := range members {
		f.members[m.Name] = m
		f.order = append(f.order, m.Name)
		m.state.Store(int32(StateUp))
		f.ring.Add(m.Name)
	}
	return f
}

// Ring exposes the routing ring (tests assert rebalancing on it).
func (f *Fleet) Ring() *edge.Ring { return f.ring }

// Members returns point-in-time member snapshots in registration order.
func (f *Fleet) Members() []MemberStatus {
	f.mu.RLock()
	defer f.mu.RUnlock()
	out := make([]MemberStatus, 0, len(f.order))
	for _, name := range f.order {
		m := f.members[name]
		st := m.State()
		var reqs int64
		if f.inst != nil {
			reqs = f.inst.memberRequests(name).Value()
		}
		out = append(out, MemberStatus{
			Name: m.Name, URL: m.URL, State: st, StateName: st.String(), Requests: reqs,
		})
	}
	return out
}

// Live returns how many members are currently in the ring.
func (f *Fleet) Live() int { return f.ring.Len() }

// Draining reports whether Drain has been called.
func (f *Fleet) Draining() bool { return f.draining.Load() }

// Drain begins a graceful shutdown: new requests are refused with 503
// (Connection: close) while in-flight ones finish under the caller's
// http.Server.Shutdown, and the health checker stops. Idempotent.
func (f *Fleet) Drain() {
	if f.draining.CompareAndSwap(false, true) {
		if f.cfg.Logger != nil {
			f.cfg.Logger.Info("fleet draining")
		}
		f.stopHealth()
	}
}

// HedgeDelay returns the current hedge trigger: the configured
// quantile of observed proxied latency, floored at HedgeMin.
func (f *Fleet) HedgeDelay() time.Duration {
	d := time.Duration(f.lat.Quantile(f.cfg.HedgeQuantile))
	if d < f.cfg.HedgeMin {
		d = f.cfg.HedgeMin
	}
	if max := f.cfg.Timeout / 2; max > 0 && d > max {
		d = max
	}
	return d
}

// proxyResult is one buffered upstream response.
type proxyResult struct {
	status int
	header http.Header
	body   []byte
	member string
}

// maxProxyBody bounds one buffered upstream response (and request)
// body; the workload is small JSON objects, so 32 MiB is generous.
const maxProxyBody = 32 << 20

// retryable reports whether a status should fail over to the next
// replica: any 5xx, since the next node either has the object cached
// or its own healthy origin path.
func retryable(status int) bool { return status >= 500 }

// hopHeaders are not forwarded in either direction (RFC 7230 §6.1).
var hopHeaders = []string{
	"Connection", "Keep-Alive", "Proxy-Authenticate", "Proxy-Authorization",
	"Proxy-Connection", "Te", "Trailer", "Transfer-Encoding", "Upgrade",
}

func copyHeaders(dst, src http.Header) {
	for k, vv := range src {
		for _, v := range vv {
			dst.Add(k, v)
		}
	}
	for _, h := range hopHeaders {
		dst.Del(h)
	}
}

// ServeHTTP implements http.Handler: route on the object URL, forward
// to the responsible live node, fail over on connect/5xx errors, and
// optionally hedge slow GETs.
func (f *Fleet) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	if f.draining.Load() {
		w.Header().Set("Connection", "close")
		w.Header().Set("Retry-After", "1")
		http.Error(w, "draining", http.StatusServiceUnavailable)
		return
	}
	// Route on the same key the nodes cache on, so placement and cache
	// affinity agree.
	key := edge.CacheKey(r)

	// One extra candidate beyond the failover budget so the hedge has
	// a distinct target even when every failover attempt is spent.
	cands := f.ring.LookupN(key, f.cfg.MaxFailover+2)
	if len(cands) == 0 {
		if f.inst != nil {
			f.inst.NoMembers.Inc()
		}
		w.Header().Set("Retry-After", "1")
		http.Error(w, "no live fleet members", http.StatusServiceUnavailable)
		return
	}

	var body []byte
	if r.Body != nil && r.Body != http.NoBody {
		b, err := io.ReadAll(io.LimitReader(r.Body, maxProxyBody))
		if err != nil {
			http.Error(w, "reading request body", http.StatusBadGateway)
			return
		}
		body = b
	}

	var (
		res     *proxyResult
		lastErr error
	)
	attempts := f.cfg.MaxFailover + 1
	if attempts > len(cands) {
		attempts = len(cands)
	}
	for i := 0; i < attempts; i++ {
		if i > 0 && f.inst != nil {
			f.inst.Failovers.Inc()
		}
		hedgeable := f.cfg.Hedge && i == 0 && r.Method == http.MethodGet &&
			len(body) == 0 && len(cands) > 1
		var err error
		if hedgeable {
			res, err = f.hedgedAttempt(r.Context(), cands[0], cands[1], r, body)
		} else {
			res, err = f.attempt(r.Context(), cands[i], r, body)
		}
		if err != nil {
			lastErr = err
			res = nil
			continue
		}
		if retryable(res.status) && i+1 < attempts {
			lastErr = fmt.Errorf("fleet: %s answered %d", res.member, res.status)
			res = nil
			continue
		}
		break
	}
	if res == nil {
		if f.inst != nil {
			f.inst.Exhausted.Inc()
		}
		w.Header().Set("Content-Type", "application/json")
		w.Header().Set("Retry-After", "1")
		w.WriteHeader(http.StatusBadGateway)
		fmt.Fprintf(w, `{"error":"all replicas failed","detail":%q}`, fmt.Sprint(lastErr))
		return
	}

	if f.inst != nil {
		f.inst.memberRequests(res.member).Inc()
		switch res.header.Get("X-Cache") {
		case "HIT", "STALE", "NEGATIVE":
			f.inst.Hits.Inc()
		case "MISS":
			f.inst.Misses.Inc()
		}
	}
	copyHeaders(w.Header(), res.header)
	w.Header().Set("X-Fleet-Node", res.member)
	w.WriteHeader(res.status)
	if r.Method != http.MethodHead {
		w.Write(res.body)
	}
}

// attempt proxies one request to one member, buffering the response.
func (f *Fleet) attempt(ctx context.Context, name string, r *http.Request, body []byte) (*proxyResult, error) {
	f.mu.RLock()
	m := f.members[name]
	f.mu.RUnlock()
	if m == nil {
		return nil, fmt.Errorf("fleet: unknown member %q", name)
	}
	ctx, cancel := context.WithTimeout(ctx, f.cfg.Timeout)
	defer cancel()
	req, err := http.NewRequestWithContext(ctx, r.Method, m.URL+r.URL.RequestURI(), bytes.NewReader(body))
	if err != nil {
		return nil, err
	}
	copyHeaders(req.Header, r.Header)
	req.Host = r.Host // cache keys on the nodes include the original host

	start := time.Now()
	resp, err := f.client.Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	respBody, err := io.ReadAll(io.LimitReader(resp.Body, maxProxyBody))
	if err != nil {
		return nil, err
	}
	f.lat.Record(time.Since(start).Nanoseconds())
	return &proxyResult{
		status: resp.StatusCode,
		header: resp.Header.Clone(),
		body:   respBody,
		member: name,
	}, nil
}

// hedgedAttempt races the primary against a delayed hedge to the next
// replica: the first usable response wins and the loser's context is
// canceled. An attempt error or retryable status only loses the race —
// it is returned solely when both legs fail.
func (f *Fleet) hedgedAttempt(ctx context.Context, primary, backup string, r *http.Request, body []byte) (*proxyResult, error) {
	ctx, cancel := context.WithCancel(ctx)
	defer cancel() // cancels the losing leg

	type legOut struct {
		res    *proxyResult
		err    error
		hedged bool
	}
	out := make(chan legOut, 2)
	run := func(name string, hedged bool) {
		res, err := f.attempt(ctx, name, r, body)
		out <- legOut{res: res, err: err, hedged: hedged}
	}
	go run(primary, false)

	timer := time.NewTimer(f.HedgeDelay())
	defer timer.Stop()

	hedgeFired := false
	legs := 1
	var firstErr error
	for {
		select {
		case <-timer.C:
			if !hedgeFired {
				hedgeFired = true
				legs++
				if f.inst != nil {
					f.inst.Hedges.Inc()
				}
				go run(backup, true)
			}
		case o := <-out:
			usable := o.err == nil && !retryable(o.res.status)
			if usable {
				if f.inst != nil && hedgeFired {
					if o.hedged {
						f.inst.HedgesWon.Inc()
					} else {
						f.inst.HedgesWasted.Inc()
					}
				}
				return o.res, nil
			}
			if o.err != nil && firstErr == nil {
				firstErr = o.err
			} else if o.err == nil && firstErr == nil {
				firstErr = fmt.Errorf("fleet: %s answered %d", o.res.member, o.res.status)
			}
			legs--
			if legs == 0 {
				// Every launched leg failed. When the primary failed
				// before the hedge delay, the hedge never fired — the
				// caller's failover loop takes over rather than burning
				// the hedge on a dead node.
				return nil, firstErr
			}
		case <-ctx.Done():
			return nil, ctx.Err()
		}
	}
}

// memberNames returns the registered names, sorted (for probing).
func (f *Fleet) memberNames() []string {
	f.mu.RLock()
	defer f.mu.RUnlock()
	out := make([]string, len(f.order))
	copy(out, f.order)
	sort.Strings(out)
	return out
}

// UpdateMemberURL repoints a member (a restarted node that came back
// on a different port). The name — and therefore its ring slice — is
// unchanged.
func (f *Fleet) UpdateMemberURL(name, url, healthURL string) error {
	f.mu.Lock()
	defer f.mu.Unlock()
	m := f.members[name]
	if m == nil {
		return fmt.Errorf("fleet: unknown member %q", name)
	}
	m.URL = url
	if healthURL != "" {
		m.HealthURL = healthURL
	}
	return nil
}

// label sanitizes a member name for use as a metric label value.
func label(name string) string {
	return strings.Map(func(r rune) rune {
		switch {
		case r >= 'a' && r <= 'z', r >= 'A' && r <= 'Z', r >= '0' && r <= '9', r == '-', r == '_':
			return r
		default:
			return '_'
		}
	}, name)
}
