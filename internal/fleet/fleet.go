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
// Failover and hedging decide on a member's status line. Up to there the
// front can still change its mind and holds what it may have to send
// again (the request body); from there it has committed — the client
// gets that status line and the body is relayed as it arrives, never
// buffered. A member that fails after the commit cannot be failed over
// from: the client's connection is aborted, so the reply reads as
// broken rather than as short, and fleet_aborted_total counts it.
//
// The router is deliberately cache-oblivious: nodes own their caches
// and defenses; the front tier owns placement, liveness, and retries.
package fleet

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/url"
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

	// target is URL parsed, so that an attempt does not parse it again;
	// requests is the member's fleet_member_requests_total series, nil
	// until Instrument.
	target   atomic.Pointer[url.URL]
	requests *obs.Counter

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
	// after a connect error or 5xx. It has no default: the zero value
	// (and any negative value) disables failover — the negative control
	// scripts/chaos-check.sh uses to prove the availability gate bites.
	// jsonfleet's -failover flag defaults to 2.
	MaxFailover int
	// Hedge enables tail-latency hedging for GETs: when the primary
	// attempt outlives the hedge delay, a second copy goes to the next
	// ring replica and the first response wins.
	Hedge bool
	// HedgeMin floors the hedge delay (default 10ms) so a warm cache
	// does not hedge every request.
	HedgeMin time.Duration
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
	cfg       Config
	ring      *edge.Ring
	transport http.RoundTripper
	maxBody   int64 // maxProxyBody; a field so that a test can lower it

	// members is written only by New; mu guards the members' URL fields
	// and the health state machine.
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
		maxBody:     maxProxyBody,
		checkerStop: make(chan struct{}),
		checkerDone: make(chan struct{}),
	}
	f.transport = cfg.Transport
	if f.transport == nil {
		t := http.DefaultTransport.(*http.Transport).Clone()
		t.MaxIdleConnsPerHost = 256
		f.transport = t
	}
	for _, m := range members {
		f.members[m.Name] = m
		f.order = append(f.order, m.Name)
		m.state.Store(int32(StateUp))
		// A URL that does not parse leaves target nil: every attempt on
		// the member fails, and fails over, like one on a dead address.
		if u, err := url.Parse(m.URL); err == nil {
			m.target.Store(u)
		}
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
		if m.requests != nil {
			reqs = m.requests.Value()
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

// hedgeQuantile is the observed-latency quantile the hedge delay tracks.
const hedgeQuantile = 0.99

// HedgeDelay returns the current hedge trigger: the hedgeQuantile of
// observed proxied latency, floored at HedgeMin.
func (f *Fleet) HedgeDelay() time.Duration {
	d := time.Duration(f.lat.Quantile(hedgeQuantile))
	if d < f.cfg.HedgeMin {
		d = f.cfg.HedgeMin
	}
	if max := f.cfg.Timeout / 2; max > 0 && d > max {
		d = max
	}
	return d
}

// upstream is one member's answer up to its status line: the headers
// are in, the body is still on the wire. Whoever holds it either relays
// the body or discards it, and then releases the attempt.
type upstream struct {
	resp   *http.Response
	member *Member
	// release ends the attempt's deadline, which spans the body.
	release context.CancelFunc
}

// close abandons the body where it stands — a losing hedge leg, or a
// relay that is over — so the connection is reused only if the body had
// been read to its end.
func (u *upstream) close() {
	u.resp.Body.Close()
	u.release()
}

// discard is for an answer the front will not use but whose member is
// alive (a 5xx it fails over from): the body is read to its end first,
// still under the attempt's deadline, so the connection goes back to
// the pool.
func (u *upstream) discard() {
	io.Copy(io.Discard, u.resp.Body) // an error only costs the connection
	u.close()
}

// maxProxyBody bounds a request body, which is buffered because a
// failover or a hedge sends it again; the workload is small JSON
// objects, so 32 MiB is generous.
const maxProxyBody = 32 << 20

// retryable reports whether a status should fail over to the next
// replica: any 5xx, since the next node either has the object cached
// or its own healthy origin path.
func retryable(status int) bool { return status >= 500 }

// copyHeaders copies src into dst without the hop-by-hop headers, which
// are not forwarded in either direction (RFC 7230 §6.1). The value
// slices are shared, not copied: src is a request or response this
// package was handed to read and nothing writes to it afterwards.
func copyHeaders(dst, src http.Header) {
	for k, vv := range src {
		switch k {
		case "Connection", "Keep-Alive", "Proxy-Authenticate", "Proxy-Authorization",
			"Proxy-Connection", "Te", "Trailer", "Transfer-Encoding", "Upgrade":
		default:
			dst[k] = vv
		}
	}
}

// ServeHTTP implements http.Handler: route on the object URL, forward
// to the responsible live node, fail over on connect/5xx errors, and
// optionally hedge slow GETs. It buffers only what it may have to send
// twice, the request body; a response is relayed as it arrives.
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
		b, err := io.ReadAll(http.MaxBytesReader(w, r.Body, f.maxBody))
		var tooLarge *http.MaxBytesError
		if errors.As(err, &tooLarge) {
			http.Error(w, "request body too large", http.StatusRequestEntityTooLarge)
			return
		}
		if err != nil {
			http.Error(w, "reading request body", http.StatusBadGateway)
			return
		}
		body = b
	}

	up, err := f.choose(r, cands, body)
	if err != nil {
		if f.inst != nil {
			f.inst.Exhausted.Inc()
		}
		w.Header().Set("Content-Type", "application/json")
		w.Header().Set("Retry-After", "1")
		w.WriteHeader(http.StatusBadGateway)
		fmt.Fprintf(w, `{"error":"all replicas failed","detail":%q}`, err.Error())
		return
	}
	f.relay(w, up)
}

// choose runs the failover loop: it returns the first answer whose
// status line is not retryable, or the last replica's answer whatever
// it says, or the last error when no replica in budget answered at all.
// This is the commit point — everything failover and hedging cover
// happens before it returns.
func (f *Fleet) choose(r *http.Request, cands []string, body []byte) (*upstream, error) {
	attempts := min(f.cfg.MaxFailover+1, len(cands))
	var lastErr error
	for i := 0; i < attempts; i++ {
		if i > 0 && f.inst != nil {
			f.inst.Failovers.Inc()
		}
		var up *upstream
		var err error
		if f.cfg.Hedge && i == 0 && r.Method == http.MethodGet && len(body) == 0 && len(cands) > 1 {
			up, err = f.hedgedAttempt(r, cands[0], cands[1])
		} else {
			ctx, release := context.WithTimeout(r.Context(), f.cfg.Timeout)
			up, err = f.attempt(ctx, release, cands[i], r, body)
		}
		switch {
		case err != nil:
			lastErr = err
		case retryable(up.resp.StatusCode) && i+1 < attempts:
			lastErr = fmt.Errorf("fleet: %s answered %d", up.member.Name, up.resp.StatusCode)
			up.discard()
		default:
			return up, nil
		}
	}
	return nil, lastErr
}

// relay commits to up: status line and headers go to the client, then
// the body as it arrives. From here there is no second choice — the
// client has the status line — so an upstream that fails mid-body
// aborts the client's connection, which is the only way left to say
// that the reply is not whole.
func (f *Fleet) relay(w http.ResponseWriter, up *upstream) {
	defer up.close()
	resp := up.resp
	if f.inst != nil {
		up.member.requests.Inc()
		if v := resp.Header["X-Cache"]; len(v) > 0 {
			switch v[0] {
			case "HIT", "STALE", "NEGATIVE":
				f.inst.Hits.Inc()
			case "MISS":
				f.inst.Misses.Inc()
			}
		}
	}
	h := w.Header()
	copyHeaders(h, resp.Header)
	h.Set("X-Fleet-Node", up.member.Name)
	w.WriteHeader(resp.StatusCode)

	// Not io.Copy: on a TCP connection net/http's ResponseWriter.ReadFrom
	// flushes the headers with the body's first 512 bytes and hands the
	// rest to net.TCPConn.ReadFrom, which for a source that is neither a
	// file nor a socket allocates a 32 KiB buffer a call — two writes and
	// one buffer a response where Write needs one write and none. Write
	// also keeps the two ways a copy can fail apart.
	bp := relayBufs.Get().(*[]byte)
	defer relayBufs.Put(bp)
	for {
		n, rerr := resp.Body.Read(*bp)
		if n > 0 {
			if _, werr := w.Write((*bp)[:n]); werr != nil {
				return // the client has gone; the server knows
			}
		}
		if rerr == io.EOF {
			return
		}
		if rerr != nil {
			if f.inst != nil {
				f.inst.Aborted.Inc()
			}
			panic(http.ErrAbortHandler)
		}
	}
}

// relayBufs holds relay's copy buffers, the size io.Copy would allocate.
var relayBufs = sync.Pool{New: func() any {
	b := make([]byte, 32<<10)
	return &b
}}

// attempt proxies one request to one member and returns its answer as
// soon as the status line and headers are in. ctx carries the attempt's
// one deadline — Config.Timeout, set by the caller — and it covers the
// body too: release ends it, here when the attempt fails, through the
// upstream when it answers.
func (f *Fleet) attempt(ctx context.Context, release context.CancelFunc, name string, r *http.Request, body []byte) (*upstream, error) {
	m := f.members[name]
	if m == nil {
		release()
		return nil, fmt.Errorf("fleet: unknown member %q", name)
	}
	target := m.target.Load()
	if target == nil {
		release()
		return nil, fmt.Errorf("fleet: member %q has no usable URL", name)
	}
	// The member's scheme and authority, the client's path and query.
	u := *r.URL
	u.Scheme, u.Host, u.User, u.Fragment, u.RawFragment = target.Scheme, target.Host, nil, "", ""
	if target.Path != "" {
		if u.RawPath != "" || target.RawPath != "" {
			u.RawPath = target.EscapedPath() + u.EscapedPath()
		}
		u.Path = target.Path + u.Path
	}

	req := (&http.Request{
		Method: r.Method,
		URL:    &u,
		Header: make(http.Header, len(r.Header)),
		Host:   r.Host, // cache keys on the nodes include the original host
	}).WithContext(ctx)
	copyHeaders(req.Header, r.Header)
	if len(body) > 0 {
		req.ContentLength = int64(len(body))
		req.GetBody = func() (io.ReadCloser, error) {
			return io.NopCloser(bytes.NewReader(body)), nil
		}
		req.Body, _ = req.GetBody()
	}

	start := time.Now()
	resp, err := f.transport.RoundTrip(req)
	if err != nil {
		release()
		return nil, err
	}
	f.lat.Record(time.Since(start).Nanoseconds())
	return &upstream{resp: resp, member: m, release: release}, nil
}

// hedgedAttempt races the primary against a delayed hedge to the next
// replica: the first usable answer wins and the loser is cancelled, its
// body closed unread. An attempt error or retryable status only loses
// the race — it is returned, as an error, solely when both legs fail.
func (f *Fleet) hedgedAttempt(r *http.Request, primary, backup string) (*upstream, error) {
	type legOut struct {
		up  *upstream
		err error
		leg int // 0 the primary, 1 the hedge
	}
	// Each leg hands its answer to the loop below or, once the loop has
	// returned, closes it itself: an answer is never left unowned.
	out := make(chan legOut)
	decided := make(chan struct{})
	defer close(decided)
	var release [2]context.CancelFunc
	run := func(leg int, name string) {
		ctx, rel := context.WithTimeout(r.Context(), f.cfg.Timeout)
		release[leg] = rel
		go func() {
			up, err := f.attempt(ctx, rel, name, r, nil)
			select {
			case out <- legOut{up: up, err: err, leg: leg}:
			case <-decided:
				if up != nil {
					up.close()
				}
			}
		}()
	}
	run(0, primary)

	timer := time.NewTimer(f.HedgeDelay())
	defer timer.Stop()

	legs := 1
	var firstErr error
	for {
		select {
		case <-timer.C:
			legs++
			if f.inst != nil {
				f.inst.Hedges.Inc()
			}
			run(1, backup)
		case o := <-out:
			if o.err == nil && !retryable(o.up.resp.StatusCode) {
				if loser := release[1-o.leg]; loser != nil {
					loser()
					if f.inst != nil {
						if o.leg == 1 {
							f.inst.HedgesWon.Inc()
						} else {
							f.inst.HedgesWasted.Inc()
						}
					}
				}
				return o.up, nil
			}
			if o.err == nil {
				o.err = fmt.Errorf("fleet: %s answered %d", o.up.member.Name, o.up.resp.StatusCode)
				o.up.discard()
			}
			if firstErr == nil {
				firstErr = o.err
			}
			legs--
			if legs == 0 {
				// Every launched leg failed. When the primary failed
				// before the hedge delay, the hedge never fired — the
				// caller's failover loop takes over rather than burning
				// the hedge on a dead node.
				return nil, firstErr
			}
		case <-r.Context().Done():
			// The client has gone, and both legs' contexts with it.
			return nil, r.Context().Err()
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
func (f *Fleet) UpdateMemberURL(name, rawURL, healthURL string) error {
	f.mu.Lock()
	defer f.mu.Unlock()
	m := f.members[name]
	if m == nil {
		return fmt.Errorf("fleet: unknown member %q", name)
	}
	target, err := url.Parse(rawURL)
	if err != nil {
		return fmt.Errorf("fleet: member %q: %w", name, err)
	}
	m.URL = rawURL
	m.target.Store(target)
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
