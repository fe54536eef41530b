// Package defend closes the loop between the paper's anomaly
// applications (§5.1–§5.2) and the serving edge: it turns online
// detection — request-likelihood and period-deviation verdicts from
// internal/anomaly, plus behavioral heuristics over the live request
// stream — into admission decisions on edge.HTTPEdge via the
// edge.Defense hook. The defenses map one-to-one onto the attack
// populations internal/synth generates:
//
//   - cache-busting query storms → cache-key collapse: once a base
//     object accumulates distinct-query misses, its variants collapse
//     onto the base cache key and the storm turns into cache hits;
//   - compression-conversion amplification → the same collapse bounds
//     origin re-fetches per base object;
//   - hammered-miss error keys → negative caching in an edge.Cache
//     substrate, so repeated failures are answered at the edge;
//   - bot floods → a domain fan-out heuristic plus the ngram request
//     detector feed a per-client suspicion score; abusers are shed;
//   - volumetric floods → token buckets per client and per sched
//     class (machine/human) shed before any origin work.
//
// All decisions are deterministic functions of the observed stream and
// the clock handed in by the edge, so experiments on a simulated clock
// reproduce exactly.
package defend

import (
	"math"
	"net/http"
	"strconv"
	"strings"
	"sync"
	"time"

	"repro/internal/anomaly"
	"repro/internal/edge"
	"repro/internal/flows"
	"repro/internal/logfmt"
	"repro/internal/sched"
)

// Config tunes the Defender. The zero value gets conservative defaults
// from withDefaults: generous rate limits (benign traffic should never
// notice), collapse after 12 distinct-query misses, negative caching
// after 3 errors on a key.
type Config struct {
	// ClientRPS / ClientBurst are the per-client token bucket: refill
	// rate (req/s, default 40) and capacity (default 80).
	ClientRPS   float64
	ClientBurst float64
	// MachineRPS / MachineBurst bound the aggregate machine-class rate
	// (default 400/800); HumanRPS / HumanBurst the human class
	// (default 2000/4000). Classes come from edge.ClassifyRequest.
	MachineRPS   float64
	MachineBurst float64
	HumanRPS     float64
	HumanBurst   float64
	// BustVariants is how many distinct-query non-hit requests a base
	// object absorbs inside BustWindow before its cache key collapses
	// (defaults 12 and 30s); CollapseTTL is how long the collapse
	// holds (default 2m).
	BustVariants int
	BustWindow   time.Duration
	CollapseTTL  time.Duration
	// NegErrors is how many 404/5xx outcomes a full key accumulates
	// inside BustWindow before it is negative-cached for NegTTL
	// (defaults 3 and 30s).
	NegErrors int
	NegTTL    time.Duration
	// FanOutHosts is how many distinct hosts a client may touch inside
	// BustWindow before it looks bot-like (default 4; application
	// clients talk to one API host, browsers to a handful).
	FanOutHosts int
	// SuspicionLimit is the score at which a client is shed as an
	// abuser (default 3); scores decay with SuspicionHalfLife
	// (default 1m), so an idle offender earns its way back.
	SuspicionLimit    float64
	SuspicionHalfLife time.Duration
	// Detector, if non-nil, scores each admitted request against a
	// trained ngram model (anomaly.RequestDetector); anomalous verdicts
	// add suspicion. The Defender serializes access, so the detector
	// needs no locking of its own.
	Detector *anomaly.RequestDetector
	// Periods maps request paths of known-periodic objects (from the
	// periodicity analysis) to their expected period; off-period
	// arrivals per anomaly.PeriodDetector add suspicion.
	Periods map[string]time.Duration
	// MaxClients bounds the per-client state table (default 65536);
	// past it, clients idle for two half-lives are swept.
	MaxClients int
	// ClientIDHeader, if set, names a trusted front-end header carrying
	// the hashed client ID in hex (jsonreplay forwards each record's
	// identity as X-Client-Id). Replayed traffic all arrives on one
	// socket, so without this every record would collapse into a single
	// per-client bucket. Only enable it behind a trusted hop.
	ClientIDHeader string
}

func (c Config) withDefaults() Config {
	if c.ClientRPS <= 0 {
		c.ClientRPS = 40
	}
	if c.ClientBurst <= 0 {
		c.ClientBurst = 2 * c.ClientRPS
	}
	if c.MachineRPS <= 0 {
		c.MachineRPS = 400
	}
	if c.MachineBurst <= 0 {
		c.MachineBurst = 2 * c.MachineRPS
	}
	if c.HumanRPS <= 0 {
		c.HumanRPS = 2000
	}
	if c.HumanBurst <= 0 {
		c.HumanBurst = 2 * c.HumanRPS
	}
	if c.BustVariants <= 0 {
		c.BustVariants = 12
	}
	if c.BustWindow <= 0 {
		c.BustWindow = 30 * time.Second
	}
	if c.CollapseTTL <= 0 {
		c.CollapseTTL = 2 * time.Minute
	}
	if c.NegErrors <= 0 {
		c.NegErrors = 3
	}
	if c.NegTTL <= 0 {
		c.NegTTL = 30 * time.Second
	}
	if c.FanOutHosts <= 0 {
		c.FanOutHosts = 4
	}
	if c.SuspicionLimit <= 0 {
		c.SuspicionLimit = 3
	}
	if c.SuspicionHalfLife <= 0 {
		c.SuspicionHalfLife = time.Minute
	}
	if c.MaxClients <= 0 {
		c.MaxClients = 1 << 16
	}
	return c
}

// bucket is a token bucket on the caller-supplied clock.
type bucket struct {
	tokens float64
	last   time.Time
}

// take refills by elapsed time and consumes one token if available.
func (b *bucket) take(now time.Time, rate, burst float64) bool {
	if b.last.IsZero() {
		b.tokens = burst
	} else if dt := now.Sub(b.last).Seconds(); dt > 0 {
		b.tokens += dt * rate
		if b.tokens > burst {
			b.tokens = burst
		}
	}
	b.last = now
	if b.tokens >= 1 {
		b.tokens--
		return true
	}
	return false
}

// clientState is the per-client ledger: rate bucket, decaying suspicion
// score, and the fan-out window.
type clientState struct {
	bucket    bucket
	suspicion float64
	suspAt    time.Time // last suspicion update, for decay
	lastSeen  time.Time

	hosts     map[string]struct{}
	hostsFrom time.Time
}

// decayed returns the suspicion score decayed to now.
func (c *clientState) decayed(now time.Time, halfLife time.Duration) float64 {
	if c.suspicion == 0 || c.suspAt.IsZero() {
		return c.suspicion
	}
	dt := now.Sub(c.suspAt).Seconds()
	if dt <= 0 {
		return c.suspicion
	}
	return c.suspicion * math.Exp2(-dt/halfLife.Seconds())
}

// addSuspicion folds decay in and adds delta at now.
func (c *clientState) addSuspicion(now time.Time, halfLife time.Duration, delta float64) {
	c.suspicion = c.decayed(now, halfLife) + delta
	c.suspAt = now
}

// baseState tracks one base object (host+path, query stripped): the
// distinct-query miss window driving collapse, and the error window
// driving negative caching of its full keys.
type baseState struct {
	variants    int
	variantFrom time.Time
	collapsedTo time.Time
	lastSeen    time.Time
}

// negativeBody is what a negative-cached key is answered with.
var negativeBody = []byte(`{"error":"negative cached"}`)

// keyErr tracks recent error outcomes for one full key.
type keyErr struct {
	n    int
	from time.Time
}

// Defender implements edge.Defense: online detection feeding token
// buckets, cache-key collapse, negative caching, and abuser shedding.
// It is safe for concurrent use; all state sits behind one mutex (the
// per-request work is a few map operations).
type Defender struct {
	cfg Config
	obs *Instrumentation

	mu      sync.Mutex
	clients map[flows.ClientKey]*clientState
	machine bucket
	human   bucket
	bases   map[string]*baseState
	neg     *edge.Cache // entries carry the edge.DefenseAction to answer with
	errs    map[string]*keyErr
	pdets   map[string]*anomaly.PeriodDetector
}

// negCapacity bounds the negative cache substrate in bytes.
const negCapacity = 1 << 20

// New returns a Defender with cfg's zero fields defaulted.
func New(cfg Config) *Defender {
	cfg = cfg.withDefaults()
	return &Defender{
		cfg:     cfg,
		clients: make(map[flows.ClientKey]*clientState),
		bases:   make(map[string]*baseState),
		neg:     edge.NewCache(negCapacity, cfg.NegTTL, 4),
		errs:    make(map[string]*keyErr),
		pdets:   make(map[string]*anomaly.PeriodDetector),
	}
}

// clientKey derives the client identity the detectors key on: the
// hashed remote host plus the hashed user agent — the same identity the
// logfmt records carry, so detector state lines up with the analyses.
// With ClientIDHeader configured, a trusted front-end (or the replay
// harness) supplies the hashed ID directly.
func (d *Defender) clientKey(r *http.Request) flows.ClientKey {
	if h := d.cfg.ClientIDHeader; h != "" {
		if v := r.Header.Get(h); v != "" {
			if id, err := strconv.ParseUint(v, 16, 64); err == nil {
				return flows.ClientKey{ClientID: id, UAHash: flows.HashUA(r.UserAgent())}
			}
		}
	}
	return flows.ClientKey{
		ClientID: logfmt.HashClientIP(edge.ClientHost(r.RemoteAddr)),
		UAHash:   flows.HashUA(r.UserAgent()),
	}
}

// baseOf strips the query from a cache key, leaving the key of the base
// object: what a collapsed storm's variants share.
func baseOf(key string) string {
	base, _, _ := strings.Cut(key, "?")
	return base
}

// evictDown shrinks m to at most target entries in three passes of
// rising severity: idle entries go first, then low-value ones (decayed
// suspicion, expired windows), and if the table is still over target —
// an attacker churning identities fast enough that nothing ever looks
// idle — arbitrary entries go. The hard bound always wins over
// retained state: MaxClients is a memory promise, and a defense whose
// bookkeeping an attacker can grow without limit is itself a
// denial-of-service vector.
func evictDown[K comparable, V any](m map[K]V, target int, idle, lowValue func(V) bool) {
	if len(m) <= target {
		return
	}
	for k, v := range m {
		if idle(v) {
			delete(m, k)
			if len(m) <= target {
				return
			}
		}
	}
	for k, v := range m {
		if lowValue(v) {
			delete(m, k)
			if len(m) <= target {
				return
			}
		}
	}
	for k := range m {
		delete(m, k)
		if len(m) <= target {
			return
		}
	}
}

// evictTarget leaves headroom below MaxClients so the O(n) eviction
// scan amortizes to O(1) per insert instead of running on every
// request once the table fills.
func (d *Defender) evictTarget() int {
	t := d.cfg.MaxClients - d.cfg.MaxClients/8
	if t < 1 {
		t = 1
	}
	return t
}

// client returns (creating) the state for key, evicting when the table
// is full: idle clients first, then decayed-harmless ones, then — for
// a rotating-identity flood where every entry is fresh — whatever must
// go to keep the table bounded. Suspicious clients survive longest.
func (d *Defender) client(key flows.ClientKey, now time.Time) *clientState {
	c := d.clients[key]
	if c == nil {
		if len(d.clients) >= d.cfg.MaxClients {
			idle := 2 * d.cfg.SuspicionHalfLife
			evictDown(d.clients, d.evictTarget(),
				func(v *clientState) bool { return now.Sub(v.lastSeen) > idle },
				func(v *clientState) bool { return v.decayed(now, d.cfg.SuspicionHalfLife) < 1 })
		}
		c = &clientState{}
		d.clients[key] = c
	}
	c.lastSeen = now
	return c
}

// base returns (creating) the state for a base key, with the same
// bounded-eviction discipline as client state; actively collapsed
// bases survive longest.
func (d *Defender) base(key string, now time.Time) *baseState {
	b := d.bases[key]
	if b == nil {
		if len(d.bases) >= d.cfg.MaxClients {
			idle := 2 * d.cfg.CollapseTTL
			evictDown(d.bases, d.evictTarget(),
				func(v *baseState) bool { return now.Sub(v.lastSeen) > idle },
				func(v *baseState) bool { return now.After(v.collapsedTo) })
		}
		b = &baseState{}
		d.bases[key] = b
	}
	b.lastSeen = now
	return b
}

// Admit implements edge.Defense. Decision order mirrors cost: the
// cheapest rejections (abuser shed, rate limits) come before the
// negative cache, and the collapse rewrite applies only to requests
// that will proceed.
func (d *Defender) Admit(now time.Time, r *http.Request) edge.DefenseAction {
	start := time.Now()
	d.mu.Lock()
	defer func() {
		d.mu.Unlock()
		if d.obs != nil {
			d.obs.Decision.Record(time.Since(start).Nanoseconds())
		}
	}()

	ck := d.clientKey(r)
	c := d.client(ck, now)

	// Abuser shed: detection verdicts accumulated in RecordOutcome.
	if c.decayed(now, d.cfg.SuspicionHalfLife) >= d.cfg.SuspicionLimit {
		if d.obs != nil {
			d.obs.ShedAbuser.Inc()
		}
		return edge.DefenseAction{Reject: true, RetryAfter: int(d.cfg.SuspicionHalfLife.Seconds())}
	}

	// Per-client, then per-class token buckets.
	if !c.bucket.take(now, d.cfg.ClientRPS, d.cfg.ClientBurst) {
		if d.obs != nil {
			d.obs.ShedClientRate.Inc()
		}
		return edge.DefenseAction{Reject: true, RetryAfter: 1}
	}
	if edge.ClassifyRequest(r) == sched.ClassMachine {
		if !d.machine.take(now, d.cfg.MachineRPS, d.cfg.MachineBurst) {
			if d.obs != nil {
				d.obs.ShedClassRate.Inc()
			}
			return edge.DefenseAction{Reject: true, RetryAfter: 1}
		}
	} else if !d.human.take(now, d.cfg.HumanRPS, d.cfg.HumanBurst) {
		if d.obs != nil {
			d.obs.ShedClassRate.Inc()
		}
		return edge.DefenseAction{Reject: true, RetryAfter: 1}
	}

	// Negative cache: remembered failures answered at the edge.
	full := edge.CacheKey(r)
	if got := d.neg.Read(full, now, edge.Demand); got.State == edge.Fresh {
		if d.obs != nil {
			d.obs.NegativeHits.Inc()
		}
		return got.Payload.(edge.DefenseAction)
	}

	// Cache-key collapse for bases under a query storm.
	if r.URL.RawQuery != "" {
		base := baseOf(full)
		if b, ok := d.bases[base]; ok && now.Before(b.collapsedTo) {
			if d.obs != nil {
				d.obs.Collapsed.Inc()
			}
			return edge.DefenseAction{CollapseKey: base}
		}
	}
	return edge.DefenseAction{}
}

// RecordOutcome implements edge.Defense: every admitted request's
// disposition updates the detectors that drive future admissions.
func (d *Defender) RecordOutcome(now time.Time, r *http.Request, cache logfmt.CacheStatus, status int) {
	d.mu.Lock()
	defer d.mu.Unlock()

	ck := d.clientKey(r)
	c := d.client(ck, now)

	// Distinct-query non-hits against one base: the cache-bust /
	// amplification signature. Hits are excluded — a warmed popular
	// object with a stable query is not a storm.
	if r.Method == http.MethodGet && r.URL.RawQuery != "" && cache != logfmt.CacheHit {
		b := d.base(baseOf(edge.CacheKey(r)), now)
		if b.variantFrom.IsZero() || now.Sub(b.variantFrom) > d.cfg.BustWindow {
			b.variants, b.variantFrom = 0, now
		}
		b.variants++
		if b.variants >= d.cfg.BustVariants && !now.Before(b.collapsedTo) {
			b.collapsedTo = now.Add(d.cfg.CollapseTTL)
			if d.obs != nil {
				d.obs.CollapsedBases.Inc()
			}
		}
	}

	// Error outcomes: negative-cache hammered failing keys.
	if status == http.StatusNotFound || status >= 500 {
		full := edge.CacheKey(r)
		e := d.errs[full]
		if e == nil || now.Sub(e.from) > d.cfg.BustWindow {
			if e == nil {
				if len(d.errs) >= d.cfg.MaxClients {
					evictDown(d.errs, d.evictTarget(),
						func(v *keyErr) bool { return now.Sub(v.from) > d.cfg.BustWindow },
						func(v *keyErr) bool { return v.n < d.cfg.NegErrors/2 })
				}
				e = &keyErr{}
				d.errs[full] = e
			}
			e.n, e.from = 0, now
		}
		e.n++
		if e.n >= d.cfg.NegErrors {
			d.neg.Store(full, int64(len(negativeBody)), now, edge.DefenseAction{
				Negative: true, NegStatus: status, NegBody: negativeBody, NegMIME: "application/json",
			})
			delete(d.errs, full)
			if d.obs != nil {
				d.obs.NegativeStores.Inc()
			}
		}
	}

	// Domain fan-out: a client touching many distinct hosts in a short
	// window behaves like a bot sweep, not an application session.
	if c.hosts == nil || now.Sub(c.hostsFrom) > d.cfg.BustWindow {
		c.hosts = make(map[string]struct{}, 4)
		c.hostsFrom = now
	}
	if _, ok := c.hosts[r.Host]; !ok {
		c.hosts[r.Host] = struct{}{}
		if len(c.hosts) > d.cfg.FanOutHosts {
			c.addSuspicion(now, d.cfg.SuspicionHalfLife, 1)
			if d.obs != nil {
				d.obs.FanOutFlags.Inc()
			}
		}
	}

	// Request-likelihood verdict from the trained ngram model.
	if d.cfg.Detector != nil {
		rec := logfmt.Record{
			Time: now, ClientID: ck.ClientID, Method: r.Method,
			URL:       edge.CacheKey(r),
			UserAgent: r.UserAgent(), MIMEType: "application/json",
			Status: status,
		}
		if v := d.cfg.Detector.Observe(&rec); v.Anomalous {
			c.addSuspicion(now, d.cfg.SuspicionHalfLife, 1)
			if d.obs != nil {
				d.obs.AnomalousRequest.Inc()
			}
		}
	}

	// Period-deviation verdict for known-periodic objects.
	if len(d.cfg.Periods) > 0 {
		if period, ok := d.cfg.Periods[r.URL.Path]; ok {
			pd := d.pdets[r.URL.Path]
			if pd == nil {
				pd = anomaly.NewPeriodDetector(period)
				d.pdets[r.URL.Path] = pd
			}
			if v := pd.Observe(ck, now); v.Anomalous {
				c.addSuspicion(now, d.cfg.SuspicionHalfLife, 1)
				if d.obs != nil {
					d.obs.AnomalousPeriod.Inc()
				}
			}
		}
	}
}

// Abusers returns how many known clients currently sit at or above the
// suspicion limit (the defend_abusers gauge reads this at scrape time).
func (d *Defender) Abusers(now time.Time) int {
	d.mu.Lock()
	defer d.mu.Unlock()
	n := 0
	for _, c := range d.clients {
		if c.decayed(now, d.cfg.SuspicionHalfLife) >= d.cfg.SuspicionLimit {
			n++
		}
	}
	return n
}

// NegativeEntries returns the resident negative-cache entry count,
// expired entries not yet evicted or overwritten included.
func (d *Defender) NegativeEntries() int { return d.neg.Len() }
