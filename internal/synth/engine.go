package synth

import (
	"container/heap"
	"math"
	"strings"
	"time"

	"repro/internal/logfmt"
	"repro/internal/obs"
	"repro/internal/stats"
)

// pollDevice splits periodic traffic across device families: embedded
// boxes, headless scripts without user agents, and mobile telemetry SDKs.
const (
	pollEmbeddedFrac = 0.40
	pollUnknownFrac  = 0.45
	pollMobileFrac   = 0.15
)

// pollPeriods are the machine-to-machine intervals behind Fig. 5's
// spikes, with their relative frequency.
var pollPeriods = []struct {
	d time.Duration
	w float64
}{
	{30 * time.Second, 0.18},
	{time.Minute, 0.22},
	{2 * time.Minute, 0.12},
	{3 * time.Minute, 0.10},
	{5 * time.Minute, 0.12},
	{10 * time.Minute, 0.10},
	{15 * time.Minute, 0.08},
	{30 * time.Minute, 0.05},
	{time.Hour, 0.03},
}

// Generate produces the synthetic dataset described by cfg, calling emit
// for each record. Records are approximately time ordered (sub-resource
// fetches trail their trigger by under a second); analyses that need
// strict ordering sort per flow. The *logfmt.Record passed to emit is
// reused across calls; emit must copy any fields it retains. Generate
// stops early and returns emit's error if emit fails.
func Generate(cfg Config, emit func(*logfmt.Record) error) error {
	if err := cfg.Validate(); err != nil {
		return err
	}
	g := newGenerator(cfg, emit)
	g.buildPopulation()
	g.buildAttackPopulation()
	return g.run()
}

// GenerateToWriter runs Generate, writing records to w.
func GenerateToWriter(cfg Config, w *logfmt.Writer) error {
	return Generate(cfg, w.Write)
}

// generator is the event-driven simulation state.
type generator struct {
	cfg      Config
	rng      *stats.RNG
	universe *Universe
	pools    *uaPools
	emit     func(*logfmt.Record) error
	emitErr  error

	queue eventQueue
	seq   int64
	end   time.Time

	// cacheable memoizes per-base-URL cache configuration; lastServed
	// drives the hit/miss model (a fresh edge cache with a uniform TTL).
	cacheable  map[string]bool
	lastServed map[string]time.Time

	// attackRNG is the adversarial overlay's dedicated random stream
	// (derived from Seed); attackServed is the attack actors' own serve
	// map so their hit model never writes benign state; nextAttackID
	// mints from the attack client-ID namespace. See attack.go for why
	// the separation matters.
	attackRNG    *stats.RNG
	attackServed map[string]time.Time
	nextAttackID uint64

	// recCtr/byteCtr are pre-resolved from cfg.Obs (nil when
	// uninstrumented) so emission pays no registry lookups.
	recCtr  *obs.Counter
	byteCtr *obs.Counter

	htmlSizes  stats.LogNormal
	assetSizes stats.LogNormal

	// urls interns the per-domain asset/page/image URL strings so the
	// hot emit paths do not rebuild an identical string per request.
	urls map[*Domain]*domainURLs

	nextClientID uint64
	rec          logfmt.Record
}

// domainURLs caches the formatted sub-resource URLs of one domain.
type domainURLs struct {
	pages  [browserPageMod]string
	assets [browserAssetPerPg]string
	images map[int]string
}

// domainURLs returns (creating on first use) d's URL cache.
func (g *generator) domainURLs(d *Domain) *domainURLs {
	u := g.urls[d]
	if u == nil {
		u = &domainURLs{images: make(map[int]string)}
		g.urls[d] = u
	}
	return u
}

// pageURL returns the interned HTML page URL for page index i (mod the
// page rotation).
func (g *generator) pageURL(d *Domain, i int) string {
	u := g.domainURLs(d)
	if u.pages[i] == "" {
		u.pages[i] = "https://" + d.Name + "/pages/p" + itoa(i) + ".html"
	}
	return u.pages[i]
}

// assetURL returns the interned static-asset URL for asset slot i.
func (g *generator) assetURL(d *Domain, i int) string {
	u := g.domainURLs(d)
	if u.assets[i] == "" {
		u.assets[i] = "https://" + d.Name + "/static/app" + itoa(i) + ".js"
	}
	return u.assets[i]
}

// imageURL returns the interned media URL referenced by content index i.
func (g *generator) imageURL(d *Domain, i int) string {
	u := g.domainURLs(d)
	s, ok := u.images[i]
	if !ok {
		s = "https://" + d.Name + "/media/img" + itoa(1000+i) + ".jpg"
		u.images[i] = s
	}
	return s
}

func newGenerator(cfg Config, emit func(*logfmt.Record) error) *generator {
	rng := stats.NewRNG(cfg.Seed)
	// HTML sizes carry a heavy tail so that the paper's p75 comparison
	// (JSON 87% smaller than HTML at p75) holds against the lighter
	// JSON distribution.
	html, err := stats.LogNormalFromMedianP90(1050, 150000)
	if err != nil {
		panic(err) // constants are valid
	}
	asset, err := stats.LogNormalFromMedianP90(18000, 160000)
	if err != nil {
		panic(err)
	}
	g := &generator{
		cfg:        cfg,
		rng:        rng,
		universe:   BuildUniverse(cfg.Domains, rng.Split()),
		pools:      buildUAPools(rng.Split()),
		emit:       emit,
		end:        cfg.Start.Add(cfg.Duration),
		cacheable:  make(map[string]bool),
		lastServed: make(map[string]time.Time),
		htmlSizes:  html,
		assetSizes: asset,
		urls:       make(map[*Domain]*domainURLs),
		attackRNG:  stats.NewRNG(cfg.Seed ^ attackSeedSalt),
	}
	if cfg.Obs != nil {
		cfg.Obs.Help("synth_records_generated_total", "Log records emitted by the synthetic generator.")
		g.recCtr = cfg.Obs.Counter("synth_records_generated_total")
		g.byteCtr = cfg.Obs.Counter("synth_bytes_generated_total")
	}
	return g
}

// Universe exposes the generated domain population (for tests and the
// experiment runners that join on categories).
func (g *generator) Universe() *Universe { return g.universe }

func (g *generator) newClientID() uint64 {
	g.nextClientID++
	// Spread IDs as if hashed IPs.
	return logfmt.HashClientIP(string(rune(g.nextClientID)) + "-client")
}

// buildPopulation sizes and creates the actor population from the
// config targets, using the behavioral constants from clients.go.
func (g *generator) buildPopulation() {
	cfg := g.cfg
	d := cfg.Duration.Seconds()
	tJSON := float64(cfg.TargetRequests) * (1 - cfg.NonJSONShare)
	tPeriodic := tJSON * cfg.PeriodicShare

	// Periodic poll fleets first.
	g.buildPollFleets(tPeriodic)

	mix := cfg.Mix
	norm := mix.Sum()

	// Per-actor JSON request rates implied by the behavior constants.
	appRate := (appSessionLen + 2.0) / ((appSessionLen+1)*appThinkMean + appIdleMean)
	embRate := (embSessionLen + 2.0) / ((embSessionLen+1)*embThinkMean + embIdleMean)
	browserRate := float64(browserJSONPerPg) / browserPageGap
	unknownRate := 1.0 / unknownGapMean

	// Budgets net of the poller attribution per device family.
	budget := func(share, pollFrac float64) float64 {
		b := share/norm*tJSON - pollFrac*tPeriodic
		if b < 0 {
			b = 0
		}
		return b
	}
	nApp := countFor(budget(mix.MobileApp, pollMobileFrac), appRate, d)
	nEmb := countFor(budget(mix.Embedded, pollEmbeddedFrac), embRate, d)
	nUnknown := countFor(budget(mix.Unknown, pollUnknownFrac), unknownRate, d)
	nMobBrowser := countFor(budget(mix.MobileBrowser, 0), browserRate, d)
	nDeskBrowser := countFor(budget(mix.DesktopBrowser, 0), browserRate, d)
	nDeskApp := countFor(budget(mix.DesktopApp, 0), appRate, d)

	for i := 0; i < nApp; i++ {
		c := newAppClient(g.newClientID(), pickUA(g.pools.mobileApp, g.rng),
			g.universe.SampleDomain(g.rng), g.rng.Split(), false)
		g.schedule(c, g.randomStart(appIdleMean))
	}
	for i := 0; i < nDeskApp; i++ {
		c := newAppClient(g.newClientID(), pickUA(g.pools.desktopApp, g.rng),
			g.universe.SampleDomain(g.rng), g.rng.Split(), false)
		g.schedule(c, g.randomStart(appIdleMean))
	}
	for i := 0; i < nEmb; i++ {
		c := newAppClient(g.newClientID(), pickUA(g.pools.embedded, g.rng),
			g.universe.SampleDomain(g.rng), g.rng.Split(), true)
		g.schedule(c, g.randomStart(embIdleMean))
	}
	for i := 0; i < nMobBrowser; i++ {
		c := &browserClient{id: g.newClientID(), ua: pickUA(g.pools.mobileBrowser, g.rng),
			domain: g.universe.SampleDomain(g.rng), rng: g.rng.Split()}
		g.schedule(c, g.randomStart(browserPageGap))
	}
	for i := 0; i < nDeskBrowser; i++ {
		c := &browserClient{id: g.newClientID(), ua: pickUA(g.pools.desktopBrowser, g.rng),
			domain: g.universe.SampleDomain(g.rng), rng: g.rng.Split()}
		g.schedule(c, g.randomStart(browserPageGap))
	}
	for i := 0; i < nUnknown; i++ {
		ua := "" // most unknown traffic has no user agent at all
		if g.rng.Bool(0.25) {
			ua = pickUA(g.pools.unknown, g.rng)
		}
		c := &unknownClient{id: g.newClientID(), ua: ua,
			domain: g.universe.SampleDomain(g.rng), rng: g.rng.Split(),
			scan: g.rng.Bool(0.3)}
		g.schedule(c, g.randomStart(unknownGapMean))
	}
}

// buildPollFleets creates periodic poll targets and their client fleets.
// The periodic budget is allocated across the period buckets by weight
// so the histogram of Fig. 5 shows every feasible interval even in small
// datasets; within each bucket, fleets are created until that bucket's
// share is spent. Periods too long for the capture window (a client
// needs >= 10 polls to survive the flow filter) are excluded and their
// weight redistributed.
func (g *generator) buildPollFleets(budget float64) {
	if budget < 1 {
		return
	}
	d := g.cfg.Duration.Seconds()
	// Feasible periods: at least 10 polls per client in the window.
	type bucket struct {
		period time.Duration
		w      float64
	}
	var feasible []bucket
	totalW := 0.0
	for _, p := range pollPeriods {
		if d/p.d.Seconds() >= 10 {
			feasible = append(feasible, bucket{p.d, p.w})
			totalW += p.w
		}
	}
	if len(feasible) == 0 {
		return
	}
	idx := 0
	for _, b := range feasible {
		share := budget * b.w / totalW
		perPoller := d / b.period.Seconds()
		minFleet := 10.0 * perPoller // smallest viable fleet's requests
		spent := 0.0
		// Create at least one fleet per feasible period so every spike
		// in Fig. 5 is populated — unless the bucket's budget is so far
		// below one viable fleet that it would blow the periodic share.
		for (spent == 0 && share >= 0.3*minFleet) || spent+minFleet*0.7 <= share {
			spent += g.buildOneFleet(b.period, idx, perPoller)
			idx++
		}
	}
}

// buildOneFleet creates one poll target with its periodic and sporadic
// clients and returns the expected request count it adds.
func (g *generator) buildOneFleet(period time.Duration, idx int, perPoller float64) float64 {
	d := g.cfg.Duration.Seconds()
	domain := g.universe.SampleDomain(g.rng)
	// Upload (78%) and uncacheable (56.2%) flags are stratified over the
	// fleet index with low-discrepancy (Weyl) sequences rather than
	// drawn independently: small datasets have few fleets, and plain
	// sampling would leave the periodic-traffic mix far from the paper's
	// shares in any one run.
	t := &pollTarget{
		domain:      domain,
		period:      period,
		upload:      weylFrac(idx, 0.6180339887) < 0.78,
		uncacheable: weylFrac(idx, 0.7548776662) < 0.562,
		size:        int64(120 + g.rng.Intn(900)),
	}
	if t.upload {
		t.url = "https://" + domain.Name + "/ingest/ch" + itoa(idx)
	} else {
		t.url = "https://" + domain.Name + "/poll/ch" + itoa(idx)
	}
	// Fleet composition: a fraction (u^3, so ~20% of objects exceed 50%)
	// of clients poll periodically; the rest are sporadic requesters of
	// the same object. At least 10 pollers keep the object flow above
	// the analysis filters, and sporadic clients request at a third of
	// the poll rate so the object flow's aggregate signal stays
	// detectably periodic (periodic clients dominate request volume even
	// when they are a minority of clients, which is how Fig. 6's
	// sub-majority periodic objects can still have object-level periods).
	total := 21 + g.rng.Intn(7)
	u := g.rng.Float64()
	periodic := int(u * u * u * float64(total))
	if periodic < 10 {
		periodic = 10
	}
	expected := 0.0
	for i := 0; i < periodic; i++ {
		c := &pollClient{id: g.newClientID(), ua: g.pollUA(), target: t, rng: g.rng.Split()}
		offset := time.Duration(g.rng.Float64() * float64(period))
		g.schedule(c, g.cfg.Start.Add(offset))
		expected += perPoller
	}
	// Sporadic clients request at a third of the poll rate, but never so
	// slowly that they drop below the analysis flow filter (>= ~12
	// requests in the window) — otherwise long-period objects would
	// appear fully periodic in Fig. 6.
	gapMean := 3 * period.Seconds()
	if max := d / 12; gapMean > max {
		gapMean = max
	}
	for i := 0; i < total-periodic; i++ {
		c := &sporadicClient{id: g.newClientID(), ua: g.pollUA(), target: t,
			rng: g.rng.Split(), gapMean: gapMean}
		g.schedule(c, g.randomStart(gapMean))
		expected += d / gapMean
	}
	return expected
}

// pollUA draws a user agent for machine-to-machine clients with the
// configured device split.
func (g *generator) pollUA() string {
	switch v := g.rng.Float64(); {
	case v < pollEmbeddedFrac:
		return pickUA(g.pools.embedded, g.rng)
	case v < pollEmbeddedFrac+pollMobileFrac:
		return pickUA(g.pools.mobileApp, g.rng)
	default:
		if g.rng.Bool(0.3) {
			return pickUA(g.pools.unknown, g.rng)
		}
		return ""
	}
}

func countFor(budget, rate, duration float64) int {
	if budget <= 0 || rate <= 0 || duration <= 0 {
		return 0
	}
	return int(math.Ceil(budget / (rate * duration)))
}

func (g *generator) randomStart(cycleMean float64) time.Time {
	span := cycleMean * 2
	if max := g.cfg.Duration.Seconds(); span > max {
		span = max
	}
	return g.cfg.Start.Add(secs(g.rng.Float64() * span))
}

// ---- event queue ----

type event struct {
	at  time.Time
	seq int64
	a   actor
}

type eventQueue []event

func (q eventQueue) Len() int { return len(q) }
func (q eventQueue) Less(i, j int) bool {
	if !q[i].at.Equal(q[j].at) {
		return q[i].at.Before(q[j].at)
	}
	return q[i].seq < q[j].seq
}
func (q eventQueue) Swap(i, j int)       { q[i], q[j] = q[j], q[i] }
func (q *eventQueue) Push(x interface{}) { *q = append(*q, x.(event)) }
func (q *eventQueue) Pop() interface{} {
	old := *q
	n := len(old)
	e := old[n-1]
	*q = old[:n-1]
	return e
}

func (g *generator) schedule(a actor, at time.Time) {
	if at.After(g.end) {
		return
	}
	g.seq++
	heap.Push(&g.queue, event{at: at, seq: g.seq, a: a})
}

func (g *generator) run() error {
	heap.Init(&g.queue)
	for g.queue.Len() > 0 {
		e := heap.Pop(&g.queue).(event)
		if e.at.After(g.end) {
			continue
		}
		next := e.a.fire(e.at, g)
		if g.emitErr != nil {
			return g.emitErr
		}
		if !next.IsZero() {
			g.schedule(e.a, next)
		}
	}
	return nil
}

// ---- record emission ----

func (g *generator) send(r *logfmt.Record) {
	if g.emitErr != nil || r.Time.After(g.end) {
		return
	}
	if g.recCtr != nil {
		g.recCtr.Inc()
		g.byteCtr.Add(r.Bytes)
	}
	if err := g.emit(r); err != nil {
		g.emitErr = err
	}
}

// cacheFor computes the cache disposition for a request to url at time
// now. baseKey strips per-client query tokens so configuration is
// per-object.
func (g *generator) cacheFor(url string, d *Domain, method string, now time.Time, ttl time.Duration) logfmt.CacheStatus {
	base := url
	if i := strings.IndexByte(base, '?'); i >= 0 {
		base = base[:i]
	}
	c, ok := g.cacheable[base]
	if !ok {
		c = d.ObjectCacheable(g.rng)
		g.cacheable[base] = c
	}
	if !c {
		return logfmt.CacheUncacheable
	}
	if method != "GET" {
		// Non-GET requests tunnel to origin even on cacheable objects.
		return logfmt.CacheMiss
	}
	if base != url {
		// Personalized (tokenized) variants never hit the shared cache.
		return logfmt.CacheMiss
	}
	if last, ok := g.lastServed[base]; ok && now.Sub(last) < ttl {
		return logfmt.CacheHit
	}
	g.lastServed[base] = now
	return logfmt.CacheMiss
}

func (g *generator) emitJSON(id uint64, ua, method, url string, d *Domain, at time.Time) {
	size := d.App.SampleSize(g.rng)
	status := 200
	switch method {
	case "POST":
		size /= 3
		if g.rng.Bool(0.3) {
			status, size = 204, 0
		}
	case "HEAD":
		size = 0
	default:
		if g.rng.Bool(0.005) {
			status, size = 404, 80
		}
	}
	g.rec = logfmt.Record{
		Time: at, ClientID: id, Method: method, URL: url, UserAgent: ua,
		MIMEType: "application/json", Status: status, Bytes: size,
		Cache: g.cacheFor(url, d, method, at, cacheTTL),
	}
	g.send(&g.rec)
}

func (g *generator) emitPoll(id uint64, ua, method string, t *pollTarget, at time.Time) {
	status := 200
	size := t.size
	if method == "POST" && g.rng.Bool(0.5) {
		status, size = 204, 0
	}
	// The target's own cacheability flag overrides the domain policy:
	// the paper reports periodic traffic is 56.2% uncacheable, a mix
	// independent of the hosting property's overall configuration.
	cache := logfmt.CacheUncacheable
	if !t.uncacheable {
		if method != "GET" {
			cache = logfmt.CacheMiss
		} else if last, ok := g.lastServed[t.url]; ok && at.Sub(last) < cacheTTL {
			cache = logfmt.CacheHit
		} else {
			g.lastServed[t.url] = at
			cache = logfmt.CacheMiss
		}
	}
	g.rec = logfmt.Record{
		Time: at, ClientID: id, Method: method, URL: t.url, UserAgent: ua,
		MIMEType: "application/json", Status: status, Bytes: size,
		Cache: cache,
	}
	g.send(&g.rec)
}

func (g *generator) emitHTML(id uint64, ua, url string, at time.Time) {
	size := int64(g.htmlSizes.Sample(g.rng))
	g.rec = logfmt.Record{
		Time: at, ClientID: id, Method: "GET", URL: url, UserAgent: ua,
		MIMEType: "text/html", Status: 200, Bytes: size,
		Cache: logfmt.CacheHit,
	}
	g.send(&g.rec)
}

func (g *generator) emitAsset(id uint64, ua, url, mime string, at time.Time) {
	if at.After(g.end) {
		return
	}
	size := int64(g.assetSizes.Sample(g.rng))
	g.rec = logfmt.Record{
		Time: at, ClientID: id, Method: "GET", URL: url, UserAgent: ua,
		MIMEType: mime, Status: 200, Bytes: size,
		Cache: logfmt.CacheHit,
	}
	g.send(&g.rec)
}

// weylFrac returns the fractional part of n*alpha, a low-discrepancy
// sequence over [0,1).
func weylFrac(n int, alpha float64) float64 {
	v := float64(n+1) * alpha
	return v - math.Floor(v)
}

func itoa(n int) string {
	if n == 0 {
		return "0"
	}
	var buf [20]byte
	i := len(buf)
	for n > 0 {
		i--
		buf[i] = byte('0' + n%10)
		n /= 10
	}
	return string(buf[i:])
}
