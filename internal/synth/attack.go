package synth

import (
	"errors"
	"fmt"
	"time"

	"repro/internal/logfmt"
	"repro/internal/stats"
)

// This file overlays adversarial traffic populations on the benign
// stream: the attack archetypes a CDN edge must survive (cache-busting
// query storms, flash crowds, bot floods with spoofed agents, and
// compression-conversion amplification probes). Attack actors share the
// benign simulation's event queue — records interleave in time — but
// they draw every random decision from a dedicated RNG stream and write
// only attack-local state, so the benign records of a given Seed are
// identical whether or not an attack is configured. That invariant is
// what makes ground-truth labeling possible (AttackMask) and lets the
// defense experiments A/B the same benign traffic with and without an
// overlaid attack.

// attackSeedSalt derives the attack RNG stream from Config.Seed without
// perturbing the benign stream (which consumes stats.NewRNG(Seed)).
const attackSeedSalt = 0x61747461636b5f37 // "attack_7"

// Per-attacker request rates (req/s) used to size the fleets, chosen so
// each population has a distinct client-count signature: cache busters
// are a few very hot nodes, flash crowds are many near-human clients,
// bot floods and amplification probes sit in between.
const (
	cacheBustRate = 4.0
	flashRate     = 0.6
	botRate       = 2.0
	amplifyRate   = 2.5
)

// AttackConfig sizes the adversarial overlay. Each share is the number
// of attack requests emitted as a fraction of Config.TargetRequests,
// added on top of (never displacing) the benign stream; shares above 1
// model floods that dwarf legitimate traffic. The zero value disables
// everything.
type AttackConfig struct {
	// CacheBustShare sizes the cache-busting query storm: attackers
	// request cacheable objects with a unique query string per request,
	// so every request misses the cache key and tunnels to origin.
	CacheBustShare float64
	// FlashShare sizes the flash crowd: a large fleet of realistic
	// clients hammering FlashObjects hot objects of the most popular
	// always-cacheable domain.
	FlashShare float64
	// FlashObjects is how many hot objects the flash crowd converges on
	// (default 5 when zero).
	FlashObjects int
	// BotShare sizes the bot flood: clients with spoofed user agents
	// drawn from the legitimate pools, walking content objects uniformly
	// at random — off the successor graph the ngram model learns from
	// benign traffic.
	BotShare float64
	// AmplifyShare sizes the compression-conversion amplification probe:
	// small requests carrying unique conversion queries against large
	// media objects, each forcing a large origin re-fetch (the
	// "bandwidth nightmare" pattern).
	AmplifyShare float64
	// Start offsets the attack window from Config.Start, so detectors
	// observe a clean baseline first. Zero starts attacks immediately.
	Start time.Duration
	// Duration bounds the attack window; zero runs to the capture end.
	Duration time.Duration
}

// Enabled reports whether any attack population is configured.
func (a AttackConfig) Enabled() bool {
	return a.CacheBustShare > 0 || a.FlashShare > 0 || a.BotShare > 0 ||
		a.AmplifyShare > 0
}

// Sum returns the total attack share (attack requests as a fraction of
// Config.TargetRequests).
func (a AttackConfig) Sum() float64 {
	return a.CacheBustShare + a.FlashShare + a.BotShare + a.AmplifyShare
}

// validate reports the first problem with the attack configuration.
func (a AttackConfig) validate() error {
	switch {
	case a.CacheBustShare < 0 || a.CacheBustShare > 4:
		return errors.New("synth: AttackConfig.CacheBustShare out of [0,4]")
	case a.FlashShare < 0 || a.FlashShare > 4:
		return errors.New("synth: AttackConfig.FlashShare out of [0,4]")
	case a.BotShare < 0 || a.BotShare > 4:
		return errors.New("synth: AttackConfig.BotShare out of [0,4]")
	case a.AmplifyShare < 0 || a.AmplifyShare > 4:
		return errors.New("synth: AttackConfig.AmplifyShare out of [0,4]")
	case a.FlashObjects < 0:
		return errors.New("synth: AttackConfig.FlashObjects negative")
	case a.Start < 0:
		return errors.New("synth: AttackConfig.Start negative")
	case a.Duration < 0:
		return errors.New("synth: AttackConfig.Duration negative")
	}
	return nil
}

// newAttackClientID mints a client ID from the attack namespace, which
// is disjoint from the benign namespace so labeling by ID never
// collides.
func (g *generator) newAttackClientID() uint64 {
	g.nextAttackID++
	return logfmt.HashClientIP("atk/" + itoa(int(g.nextAttackID)) + "-bot")
}

// buildAttackPopulation creates the configured attack actors. It must
// run after buildPopulation — benign client IDs and RNG draws are all
// minted by then, so nothing here can perturb them.
func (g *generator) buildAttackPopulation() {
	a := g.cfg.Attack
	if !a.Enabled() {
		return
	}
	winStart := g.cfg.Start.Add(a.Start)
	winEnd := g.end
	if a.Duration > 0 && winStart.Add(a.Duration).Before(winEnd) {
		winEnd = winStart.Add(a.Duration)
	}
	winSec := winEnd.Sub(winStart).Seconds()
	if winSec <= 0 {
		return
	}
	g.attackServed = make(map[string]time.Time)
	rng := g.attackRNG
	target := float64(g.cfg.TargetRequests)

	g.buildCacheBusters(a.CacheBustShare*target, winStart, winEnd, winSec, rng)
	g.buildFlashCrowd(a, a.FlashShare*target, winStart, winEnd, winSec, rng)
	g.buildBotFlood(a.BotShare*target, winStart, winEnd, winSec, rng)
	g.buildAmplifiers(a.AmplifyShare*target, winStart, winEnd, winSec, rng)
}

// attackFleet sizes a fleet for a request budget at a per-client rate
// and returns (clients, per-client mean gap seconds). The gap is
// re-derived from the rounded fleet size so the budget is met exactly
// in expectation.
func attackFleet(budget, rate, winSec float64) (int, float64) {
	if budget < 1 || rate <= 0 || winSec <= 0 {
		return 0, 0
	}
	n := int(budget/(rate*winSec) + 0.5)
	if n < 1 {
		n = 1
	}
	return n, float64(n) * winSec / budget
}

// attackBase carries the state shared by every attack actor: identity,
// pacing, and the attack window bound.
type attackBase struct {
	id      uint64
	ua      string
	rng     *stats.RNG
	gapMean float64
	winEnd  time.Time
	n       int
}

// next returns the actor's next wake-up, retiring it past the window.
func (b *attackBase) next(now time.Time) time.Time {
	t := now.Add(secs(stats.Exponential{Mean: b.gapMean}.Sample(b.rng)))
	if t.After(b.winEnd) {
		return time.Time{}
	}
	return t
}

// attackStart jitters a fleet member's first fire into the window.
func attackStart(winStart time.Time, gapMean, winSec float64, rng *stats.RNG) time.Time {
	span := gapMean * 2
	if span > winSec {
		span = winSec
	}
	return winStart.Add(secs(rng.Float64() * span))
}

// policyCache maps a domain's cache policy to the status of a request
// whose unique query variant can never match a shared cache entry.
func policyCache(d *Domain) logfmt.CacheStatus {
	if d.Policy == PolicyNever {
		return logfmt.CacheUncacheable
	}
	return logfmt.CacheMiss
}

// emitAttack writes one attack record through the shared send path, so
// generation counters and the end-of-window guard apply unchanged.
func (g *generator) emitAttack(id uint64, ua, method, url, mime string, status int, size int64, cache logfmt.CacheStatus, at time.Time) {
	g.rec = logfmt.Record{
		Time: at, ClientID: id, Method: method, URL: url, UserAgent: ua,
		MIMEType: mime, Status: status, Bytes: size, Cache: cache,
	}
	g.send(&g.rec)
}

// ---- cache-busting query storm ----

// cacheBustClient hammers one cacheable content object with a unique
// query string per request: every request is a distinct cache key, so
// the whole storm tunnels to origin (and, replayed against a live edge,
// evicts legitimate entries from the LRU).
type cacheBustClient struct {
	attackBase
	target string // base content URL
	cache  logfmt.CacheStatus
}

func (c *cacheBustClient) fire(now time.Time, g *generator) time.Time {
	c.n++
	url := c.target + "?cb=" + fmt.Sprintf("%08x", uint32(c.rng.Uint64())) + itoa(c.n)
	size := int64(120 + c.rng.Intn(600))
	g.emitAttack(c.id, c.ua, "GET", url, "application/json", 200, size, c.cache, now)
	return c.next(now)
}

func (g *generator) buildCacheBusters(budget float64, winStart, winEnd time.Time, winSec float64, rng *stats.RNG) {
	n, gap := attackFleet(budget, cacheBustRate, winSec)
	for i := 0; i < n; i++ {
		// Bust objects on cacheable-leaning domains: storms against
		// never-cache properties waste no cache capacity and are not
		// the interesting case.
		d := g.universe.SampleDomain(rng)
		for tries := 0; d.Policy == PolicyNever && tries < 8; tries++ {
			d = g.universe.SampleDomain(rng)
		}
		m := d.App
		c := &cacheBustClient{
			attackBase: attackBase{
				id: g.newAttackClientID(), ua: pickUA(g.pools.mobileApp, rng),
				rng: rng.Split(), gapMean: gap, winEnd: winEnd,
			},
			target: m.Contents[rng.Intn(len(m.Contents))],
			cache:  policyCache(d),
		}
		g.schedule(c, attackStart(winStart, gap, winSec, rng))
	}
}

// ---- flash crowd ----

// flashCrowd is the shared state of one flash-crowd event: the hot
// object set and an attack-local serve map modeling their cache
// residency (writes never touch the benign hit model).
type flashCrowd struct {
	hot    []string
	served map[string]time.Time
}

// flashClient is one member of the crowd: a realistic client requesting
// the hot objects at a near-human rate. Individually benign; the volume
// is the attack.
type flashClient struct {
	attackBase
	crowd *flashCrowd
}

func (c *flashClient) fire(now time.Time, g *generator) time.Time {
	url := c.crowd.hot[c.rng.Intn(len(c.crowd.hot))]
	// Hit model: warm if either the benign stream (read-only lookup) or
	// the crowd itself served the object within the TTL.
	cache := logfmt.CacheHit
	last, ok := c.crowd.served[url]
	if bl, bok := g.lastServed[url]; bok && bl.After(last) {
		last, ok = bl, true
	}
	if !ok || now.Sub(last) >= cacheTTL {
		cache = logfmt.CacheMiss
		c.crowd.served[url] = now
	}
	size := int64(300 + c.rng.Intn(1200))
	g.emitAttack(c.id, c.ua, "GET", url, "application/json", 200, size, cache, now)
	return c.next(now)
}

// flashDomain picks the crowd's target deterministically — the highest
// weight always-cacheable domain — so the crowd converges on a handful
// of hot objects.
func (g *generator) flashDomain() *Domain {
	var best *Domain
	for _, d := range g.universe.Domains {
		if d.Policy != PolicyAlways {
			continue
		}
		if best == nil || d.Weight > best.Weight {
			best = d
		}
	}
	if best == nil {
		for _, d := range g.universe.Domains {
			if best == nil || d.Weight > best.Weight {
				best = d
			}
		}
	}
	return best
}

func (g *generator) buildFlashCrowd(a AttackConfig, budget float64, winStart, winEnd time.Time, winSec float64, rng *stats.RNG) {
	n, gap := attackFleet(budget, flashRate, winSec)
	if n == 0 {
		return
	}
	d := g.flashDomain()
	k := a.FlashObjects
	if k <= 0 {
		k = 5
	}
	if k > len(d.App.Contents) {
		k = len(d.App.Contents)
	}
	crowd := &flashCrowd{hot: d.App.Contents[:k], served: g.attackServed}
	for i := 0; i < n; i++ {
		pool := g.pools.mobileApp
		if rng.Bool(0.3) {
			pool = g.pools.desktopBrowser
		}
		c := &flashClient{
			attackBase: attackBase{
				id: g.newAttackClientID(), ua: pickUA(pool, rng),
				rng: rng.Split(), gapMean: gap, winEnd: winEnd,
			},
			crowd: crowd,
		}
		g.schedule(c, attackStart(winStart, gap, winSec, rng))
	}
}

// ---- bot flood ----

// botClient floods with spoofed user agents: each request wears a fresh
// agent sampled from the legitimate pools (so UA filters see nothing
// unusual) while walking content objects uniformly at random across
// domains — a request sequence far off the successor graph the ngram
// model learns, which is what the request-pattern detector keys on.
type botClient struct {
	attackBase
}

func (c *botClient) fire(now time.Time, g *generator) time.Time {
	d := g.universe.SampleDomain(c.rng)
	m := d.App
	url := m.Contents[c.rng.Intn(len(m.Contents))]
	pool := g.pools.mobileApp
	switch c.rng.Intn(3) {
	case 1:
		pool = g.pools.desktopBrowser
	case 2:
		pool = g.pools.embedded
	}
	ua := pickUA(pool, c.rng)
	size := int64(100 + c.rng.Intn(800))
	g.emitAttack(c.id, ua, "GET", url, "application/json", 200, size, policyCache(d), now)
	return c.next(now)
}

func (g *generator) buildBotFlood(budget float64, winStart, winEnd time.Time, winSec float64, rng *stats.RNG) {
	n, gap := attackFleet(budget, botRate, winSec)
	for i := 0; i < n; i++ {
		c := &botClient{attackBase{
			id: g.newAttackClientID(), rng: rng.Split(),
			gapMean: gap, winEnd: winEnd,
		}}
		g.schedule(c, attackStart(winStart, gap, winSec, rng))
	}
}

// ---- compression-conversion amplification ----

// amplifyClient models the conversion-amplification probe: each request
// carries a unique conversion query ("serve me the identity encoding")
// against one large media object the client hammers for the whole
// window, so a few bytes of request force the edge into a large origin
// re-fetch every time — per-request origin amplification, the pattern
// the defend loop's amplification ceiling gates on.
type amplifyClient struct {
	attackBase
	domain *Domain
	obj    int
}

func (c *amplifyClient) fire(now time.Time, g *generator) time.Time {
	c.n++
	url := "https://" + c.domain.Name + "/media/img" + itoa(c.obj) +
		".jpg?conv=identity&seq=" + itoa(c.n)
	size := 4 * int64(g.assetSizes.Sample(c.rng))
	g.emitAttack(c.id, c.ua, "GET", url, "image/jpeg", 200, size, logfmt.CacheMiss, now)
	return c.next(now)
}

func (g *generator) buildAmplifiers(budget float64, winStart, winEnd time.Time, winSec float64, rng *stats.RNG) {
	n, gap := attackFleet(budget, amplifyRate, winSec)
	for i := 0; i < n; i++ {
		c := &amplifyClient{
			attackBase: attackBase{
				id: g.newAttackClientID(), ua: pickUA(g.pools.unknown, rng),
				rng: rng.Split(), gapMean: gap, winEnd: winEnd,
			},
			domain: g.universe.SampleDomain(rng),
			obj:    1000 + rng.Intn(40),
		}
		g.schedule(c, attackStart(winStart, gap, winSec, rng))
	}
}

// ---- ground-truth labeling ----

// AttackMask labels each record of a combined stream as attack traffic
// by subtracting the benign stream: generate once with Config.Attack
// set and once with it zeroed (same Seed), and the benign
// records appear in the combined stream unchanged and in order. The
// returned mask is true at attack positions. It errors if benign is not
// an ordered subsequence of combined — which would mean the overlay
// invariant is broken (or the two streams came from different configs).
func AttackMask(combined, benign []logfmt.Record) ([]bool, error) {
	mask := make([]bool, len(combined))
	j := 0
	for i := range combined {
		if j < len(benign) && combined[i] == benign[j] {
			j++
			continue
		}
		mask[i] = true
	}
	if j != len(benign) {
		return nil, fmt.Errorf("synth: benign stream is not a subsequence of the combined stream (%d of %d records matched)", j, len(benign))
	}
	return mask, nil
}
