package main

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"log"
	"net"
	"net/http"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/defend"
	"repro/internal/edge"
	"repro/internal/fleet"
	"repro/internal/livechar"
	"repro/internal/logfmt"
	"repro/internal/obs"
	"repro/internal/replay"
	"repro/internal/resilience"
	"repro/internal/synth"
)

const (
	// serveNodes is the fleet size behind the front tier.
	serveNodes = 2
	// benchHost is the Host every request carries. Cache keys and ring
	// placement include the host, so it must not be the front tier's
	// ephemeral port or placement would differ from run to run.
	benchHost = "bench.invalid"
	// reqHeader carries the request id from the client through every hop.
	reqHeader = "X-Bench-Req"
	// openRate is the open-loop arrival rate, requests a second.
	openRate = 2000
	// latencyLimit is the latency limit of replay.over_limit_ratio.
	latencyLimit = 50 * time.Millisecond
	// sampleEvery is how often a closed-loop client checks a body.
	sampleEvery = 64
)

// serveCorpus is the request stream of one set-up.
type serveCorpus struct {
	recs []logfmt.Record
	// attackers holds the client ids of attack-labelled records; a 429
	// to one of them is the defense working, not a failure.
	attackers map[uint64]bool
}

func (r *run) serveCorpus(k int, hostile bool) (*serveCorpus, error) {
	scale := 0.001 // ≈22 k benign records
	if r.opt.short {
		scale = 0.0001
	}
	cfg := synth.ShortTermConfig(r.subSeed(k), scale)
	benign, err := r.generate(cfg)
	if err != nil || !hostile {
		return &serveCorpus{recs: benign}, err
	}
	cfg.Attack = synth.AttackConfig{CacheBustShare: 0.3, FlashShare: 0.1, BotShare: 0.2, AmplifyShare: 0.1}
	combined, err := r.generate(cfg)
	if err != nil {
		return nil, err
	}
	mask, err := synth.AttackMask(combined, benign)
	if err != nil {
		return nil, err
	}
	c := &serveCorpus{recs: combined, attackers: make(map[uint64]bool)}
	for i, attack := range mask {
		if attack {
			c.attackers[combined[i].ClientID] = true
		}
	}
	for i, attack := range mask {
		r.check(attack || !c.attackers[combined[i].ClientID], "serve-hostile: client %x sends both benign and attack records", combined[i].ClientID)
	}
	return c, nil
}

// countingOrigin is the bench-side edge.Origin seam: it counts fetches
// and, when tracing, records a span for each under the request that is
// inside the node's ServeHTTP with the same path.
type countingOrigin struct {
	next    edge.Origin
	rec     *recorder
	node    int
	fetches atomic.Int64
}

func (o *countingOrigin) Fetch(path string) ([]byte, string, bool, error) {
	o.fetches.Add(1)
	if o.rec == nil {
		return o.next.Fetch(path)
	}
	slot := o.rec.begin(layerFetch, "", o.rec.lookup(o.node, path), o.node)
	defer o.rec.end(slot)
	return o.next.Fetch(path)
}

// tracedDefense is the edge.Defense seam.
type tracedDefense struct {
	next edge.Defense
	rec  *recorder
	node int
}

func (d tracedDefense) Admit(now time.Time, r *http.Request) edge.DefenseAction {
	slot := d.rec.begin(layerAdmit, "", reqID(r), d.node)
	defer d.rec.end(slot)
	return d.next.Admit(now, r)
}

func (d tracedDefense) RecordOutcome(now time.Time, r *http.Request, cache logfmt.CacheStatus, status int) {
	slot := d.rec.begin(layerOutcome, "", reqID(r), d.node)
	defer d.rec.end(slot)
	d.next.RecordOutcome(now, r, cache, status)
}

func reqID(r *http.Request) uint64 {
	id, _ := strconv.ParseUint(r.Header.Get(reqHeader), 10, 64)
	return id
}

// tracedHandler is the http.Handler seam, in front of the fleet and of
// each edge node. On a node it also publishes the request as in flight
// for the seams that see only a path.
type tracedHandler struct {
	next  http.Handler
	rec   *recorder
	layer layer
	node  int
}

func (h tracedHandler) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	id := reqID(r)
	if h.layer == layerEdge {
		path := r.URL.Path
		if r.URL.RawQuery != "" {
			path += "?" + r.URL.RawQuery
		}
		h.rec.enter(h.node, path, id)
		defer h.rec.leave(h.node, path, id)
	}
	slot := h.rec.begin(h.layer, "", id, h.node)
	defer h.rec.end(slot)
	h.next.ServeHTTP(w, r)
}

// tracedTransport is the fleet.Config.Transport seam: the front → node
// hop.
type tracedTransport struct {
	next http.RoundTripper
	rec  *recorder
}

func (t tracedTransport) RoundTrip(r *http.Request) (*http.Response, error) {
	slot := t.rec.begin(layerHop, "", reqID(r), -1)
	defer t.rec.end(slot)
	return t.next.RoundTrip(r)
}

// clientTransport is the replay.Config.Client seam, shared by the closed
// and the open loop: it pins the Host, stamps the request id when
// tracing, and classifies every response.
type clientTransport struct {
	next      http.RoundTripper
	rec       *recorder
	attackers map[uint64]bool

	ok, benign, benignRejected, attackRejected, serverErrors, transportErrors atomic.Int64
}

func (t *clientTransport) RoundTrip(req *http.Request) (*http.Response, error) {
	r := *req // RoundTrip must not modify the caller's request
	r.Host = benchHost
	var slot = -1
	if t.rec != nil {
		id := t.rec.nextReq()
		r.Header = req.Header.Clone()
		r.Header.Set(reqHeader, strconv.FormatUint(id, 10))
		slot = t.rec.begin(layerClient, "", id, -1)
	}
	resp, err := t.next.RoundTrip(&r)
	t.rec.end(slot)

	client, _ := strconv.ParseUint(req.Header.Get("X-Client-Id"), 16, 64)
	attacker := t.attackers[client]
	if !attacker {
		t.benign.Add(1)
	}
	switch {
	case err != nil:
		t.transportErrors.Add(1)
	case resp.StatusCode >= 500:
		t.serverErrors.Add(1)
	case resp.StatusCode >= 400 && attacker:
		t.attackRejected.Add(1)
	case resp.StatusCode >= 400:
		t.benignRejected.Add(1)
	default:
		t.ok.Add(1)
	}
	return resp, err
}

// requests is every request the transport has seen.
func (t *clientTransport) requests() int64 {
	return t.ok.Load() + t.attackRejected.Load() + t.failures()
}

// failures is the requests that count against the run: transport
// errors, 5xx, and benign requests answered 4xx.
func (t *clientTransport) failures() int64 {
	return t.transportErrors.Load() + t.serverErrors.Load() + t.benignRejected.Load()
}

// node is one edge process's worth of serving stack.
type node struct {
	edge      *edge.HTTPEdge
	origin    *countingOrigin
	resilient *resilience.Instrumentation
	defense   *defend.Instrumentation
	char      *livechar.LiveChar
	srv       *http.Server
}

// stack is a front tier over serveNodes edge nodes, each on its own
// loopback listener, with a client transport aimed at the front.
type stack struct {
	front     *fleet.Fleet
	frontInst *fleet.Instrumentation
	frontSrv  *http.Server
	url       string
	nodes     []*node
	hop       *http.Transport
	client    *clientTransport
	clientTr  *http.Transport
}

var discardLog = log.New(io.Discard, "", 0)

// listen serves h on an ephemeral loopback port.
func listen(h http.Handler) (*http.Server, string, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, "", err
	}
	srv := &http.Server{Handler: h, ErrorLog: discardLog}
	go srv.Serve(ln)
	return srv, "http://" + ln.Addr().String(), nil
}

// newNode wires one edge the way `liveedge -serve` does — wildcard
// origin behind a faulty origin (fault rate 0), a breaker and the
// resilient wrapper; serve-stale, shedding, metrics and the 64-span
// request trace on — with three departures: the origin has no latency,
// the per-request in-memory log append is dropped, and a hostile stack
// raises the Defender's rate limits (see newDefender).
func (r *run) newNode(i int, hostile, traced bool, seed uint64) *node {
	n := &node{}
	reg := obs.NewRegistry()
	resilient := newResilient(&resilience.FaultyOrigin{Inner: &edge.WildcardOrigin{}, Seed: seed}, seed, reg)
	n.resilient = resilient.Obs
	n.origin = &countingOrigin{next: resilient, node: i}
	cacheBytes := int64(32 << 20)
	if hostile {
		cacheBytes = 2 << 20
	}
	n.edge = &edge.HTTPEdge{
		Cache:      edge.NewCache(cacheBytes, time.Minute, 4),
		Origin:     n.origin,
		ServeStale: true,
		Degraded:   resilient.Degraded,
		Trace:      &obs.Trace{Limit: 64},
	}
	n.edge.Instrument(reg)
	if hostile {
		d := newDefender()
		n.defense = d.Instrument(reg)
		n.edge.Defend = d
		n.char = livechar.New(livechar.Config{Window: time.Minute, Seed: seed, Node: nodeName(i)})
		n.char.Start()
		n.edge.Log = n.char.Observe
	}
	if traced {
		n.origin.rec = r.rec
		if hostile {
			n.edge.Defend = tracedDefense{next: n.edge.Defend, rec: r.rec, node: i}
			n.edge.Log = func(rec *logfmt.Record) {
				slot := r.rec.begin(layerTap, "", r.rec.lookup(i, rec.Path()), i)
				n.char.Observe(rec)
				r.rec.end(slot)
			}
		}
	}
	return n
}

// newResilient is liveedge's origin path: three attempts with capped
// backoff, a one-second attempt timeout, a breaker.
func newResilient(inner edge.Origin, seed uint64, reg *obs.Registry) *resilience.ResilientOrigin {
	return &resilience.ResilientOrigin{
		Inner:          inner,
		Retry:          resilience.Backoff{Base: 5 * time.Millisecond, Cap: 50 * time.Millisecond, Attempts: 3},
		Breaker:        &resilience.Breaker{FailureThreshold: 5, OpenFor: 200 * time.Millisecond},
		AttemptTimeout: time.Second,
		Seed:           seed + 1,
		Obs:            resilience.NewInstrumentation(reg),
	}
}

// newDefender is liveedge's Defender with its rate limits raised. The
// replay compresses ten recorded minutes into seconds, so the defaults
// (400 machine and 2000 human requests a second in total, 40 a client)
// would turn the run into a measurement of one global throttle and
// refuse the busiest benign clients. The class buckets are opened up;
// the per-client bucket is five times the default, which on the
// calibration machine leaves the busiest benign client (≈130 requests a
// lap of the corpus, ≈25 a second) an eightfold margin and still bites
// on the cache-busting nodes (≈2400 a lap). So the per-client buckets,
// collapse, negative cache and suspicion do the work, as they would at
// the recorded pace.
func newDefender() *defend.Defender {
	return defend.New(defend.Config{
		ClientIDHeader: "X-Client-Id",
		ClientRPS:      200, ClientBurst: 400,
		MachineRPS: 1e6, MachineBurst: 1e6,
		HumanRPS: 1e6, HumanBurst: 1e6,
	})
}

// clients is the closed loop's width: 4P callers over 4P connections.
// With only P callers on P cores a run settles at random into one of
// two regimes a third apart — every core kept spinning by the request
// ping-pong, or cores parking between requests and paying the wake-up —
// and with 2P or more it stays in the first, which is also the one that
// measures capacity.
func (r *run) clients() int { return 4 * r.p }

func nodeName(i int) string { return fmt.Sprintf("edge-%02d", i) }

// assemble builds and starts a stack. traced installs the span seams.
func (r *run) assemble(c *serveCorpus, hostile, traced bool, seed uint64) (*stack, error) {
	s := &stack{}
	members := make([]*fleet.Member, serveNodes)
	for i := range members {
		n := r.newNode(i, hostile, traced, seed)
		var h http.Handler = n.edge
		if traced {
			h = tracedHandler{next: h, rec: r.rec, layer: layerEdge, node: i}
		}
		srv, url, err := listen(h)
		if err != nil {
			s.close()
			return nil, err
		}
		n.srv = srv
		s.nodes = append(s.nodes, n)
		members[i] = &fleet.Member{Name: nodeName(i), URL: url} // no HealthURL: pinned up
	}

	s.hop = http.DefaultTransport.(*http.Transport).Clone()
	s.hop.MaxIdleConnsPerHost = 256 // fleet.New's own default transport
	var hop http.RoundTripper = s.hop
	if traced {
		hop = tracedTransport{next: hop, rec: r.rec}
	}
	s.front = fleet.New(fleet.Config{Transport: hop}, members...)
	s.frontInst = s.front.Instrument(obs.NewRegistry())
	// The members are pinned up, so the checker has nothing to probe; it
	// runs because Drain waits for it and would block forever without it.
	s.front.StartHealth()
	var h http.Handler = s.front
	if traced {
		h = tracedHandler{next: h, rec: r.rec, layer: layerFront, node: -1}
	}
	srv, url, err := listen(h)
	if err != nil {
		s.close()
		return nil, err
	}
	s.frontSrv, s.url = srv, url

	s.clientTr = http.DefaultTransport.(*http.Transport).Clone()
	s.clientTr.MaxIdleConnsPerHost = r.clients()
	s.clientTr.MaxConnsPerHost = r.clients()
	s.client = &clientTransport{next: s.clientTr, attackers: c.attackers}
	if traced {
		s.client.rec = r.rec
	}
	return s, nil
}

// close drains the stack and waits for its servers to stop.
func (s *stack) close() {
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if s.clientTr != nil {
		s.clientTr.CloseIdleConnections()
	}
	if s.front != nil {
		s.front.Drain()
	}
	if s.frontSrv != nil {
		s.frontSrv.Shutdown(ctx)
	}
	if s.hop != nil {
		s.hop.CloseIdleConnections()
	}
	for _, n := range s.nodes {
		n.srv.Shutdown(ctx)
		if n.char != nil {
			n.char.Close()
		}
	}
}

// newRequest builds the request replay.Run would send for rec.
func newRequest(ctx context.Context, target string, rec *logfmt.Record) (*http.Request, error) {
	req, err := http.NewRequestWithContext(ctx, rec.Method, target+rec.Path(), nil)
	if err != nil {
		return nil, err
	}
	if rec.UserAgent != "" {
		req.Header.Set("User-Agent", rec.UserAgent)
	}
	req.Header.Set("X-Client-Id", fmt.Sprintf("%016x", rec.ClientID))
	return req, nil
}

// closedLoop drives the stack with clients callers that each send their
// next request when the previous one completes. Client c plays records
// c, c+clients, … and starts over at the end. With window > 0 it runs
// for windows×window and returns the good responses a second of each
// window; with window == 0 it plays the records exactly once through.
func (r *run) closedLoop(ctx context.Context, s *stack, c *serveCorpus, hostile bool, windows int, window time.Duration) []float64 {
	counts := make([]atomic.Int64, windows)
	hc := &http.Client{Transport: s.client}
	start := time.Now()
	var wg sync.WaitGroup
	var mu sync.Mutex // guards r.check from the client goroutines
	clients := r.clients()
	for cl := 0; cl < clients; cl++ {
		wg.Add(1)
		go func(cl int) {
			defer wg.Done()
			for n, i := 0, cl; ; n, i = n+1, i+clients {
				if i >= len(c.recs) {
					if window == 0 {
						return
					}
					i = cl
				}
				w := 0
				if window > 0 {
					if w = int(time.Since(start) / window); w >= windows {
						return
					}
				}
				rec := &c.recs[i]
				req, err := newRequest(ctx, s.url, rec)
				if err != nil {
					continue // counted by nobody: cannot happen for generated URLs
				}
				resp, err := hc.Do(req)
				if err != nil {
					continue // counted by the transport
				}
				if n%sampleEvery == 0 && rec.Method == http.MethodGet && resp.StatusCode == http.StatusOK {
					body, _ := io.ReadAll(resp.Body)
					problem := checkBody(rec.Path(), body, resp.Header, hostile)
					mu.Lock()
					r.check(problem == "", "%s %s", rec.Path(), problem)
					mu.Unlock()
				} else {
					io.Copy(io.Discard, resp.Body)
				}
				resp.Body.Close()
				if resp.StatusCode < 400 {
					counts[w].Add(1)
				}
			}
		}(cl)
	}
	wg.Wait()
	if window == 0 {
		return []float64{float64(counts[0].Load()) / time.Since(start).Seconds()}
	}
	rates := make([]float64, windows)
	for w := range rates {
		rates[w] = float64(counts[w].Load()) / window.Seconds()
	}
	return rates
}

// checkBody verifies a sampled 200: the fleet named the node, and the
// body is the origin's object for the path. Under a Defender a
// query-storm variant may legitimately be answered with its collapsed
// base's stored object, so there the body must be the origin's object
// for the path the body itself names, and that path must share the
// request's base.
func checkBody(path string, body []byte, h http.Header, hostile bool) string {
	if h.Get("X-Fleet-Node") == "" {
		return "has no X-Fleet-Node"
	}
	served := path
	if hostile {
		var ok bool
		if served, ok = bodyPath(body); !ok || basePath(served) != basePath(path) {
			return fmt.Sprintf("body names path %q", served)
		}
	}
	want, _, _, _ := (&edge.WildcardOrigin{}).Fetch(served)
	if !bytes.Equal(body, want) {
		return "body differs from WildcardOrigin.Fetch"
	}
	return ""
}

// bodyPath extracts the "path" member a WildcardOrigin body starts with.
func bodyPath(body []byte) (string, bool) {
	rest, ok := bytes.CutPrefix(body, []byte(`{"path":`))
	if !ok {
		return "", false
	}
	end := bytes.Index(rest, []byte(`,"object":`))
	if end < 0 {
		return "", false
	}
	p, err := strconv.Unquote(string(rest[:end]))
	return p, err == nil
}

func basePath(p string) string {
	base, _, _ := strings.Cut(p, "?")
	return base
}

// setupStack is one set-up: generate the corpus, assemble the stack,
// play the corpus once through so caches, connections and detectors
// are warm.
func (r *run) setupStack(ctx context.Context, k int, hostile, traced bool) (*stack, *serveCorpus, error) {
	start := time.Now()
	c, err := r.serveCorpus(k, hostile)
	if err != nil {
		return nil, nil, err
	}
	s, err := r.assemble(c, hostile, traced, r.subSeed(k))
	if err != nil {
		return nil, nil, err
	}
	r.closedLoop(ctx, s, c, hostile, 1, 0)
	r.endSetup(start)
	return s, c, nil
}

// openResult is what one open-loop run measured.
type openResult struct {
	res     *replay.Result
	fetches int64 // origin fetches during the run
}

// openLoop replays the corpus on a fixed schedule, whatever the stack's
// speed: replay.Run at openRate with P requests in flight at most.
// seconds == 0 plays the records exactly once through.
func (r *run) openLoop(ctx context.Context, s *stack, c *serveCorpus, seconds float64) (openResult, error) {
	cfg := replay.Config{
		Target:      s.url,
		Rate:        openRate,
		Concurrency: r.p,
		Client:      &http.Client{Transport: s.client, Timeout: 10 * time.Second},
	}
	if seconds > 0 {
		cfg.Warmup = 250 * time.Millisecond
		cfg.Duration = cfg.Warmup + time.Duration(seconds*float64(time.Second))
	}
	before := s.originFetches()
	res, err := replay.Run(ctx, c.recs, cfg)
	return openResult{res: res, fetches: s.originFetches() - before}, err
}

func (s *stack) originFetches() int64 {
	var n int64
	for _, nd := range s.nodes {
		n += nd.origin.fetches.Load()
	}
	return n
}

// serveTotals sums the work counters of every stack a run assembled.
type serveTotals struct {
	requests, fetches, hits, misses        int64
	rejects, collapses                     int64
	events, drops                          int64
	failovers, hedges, retries             int64
	clientRequests, clientFailures         int64
	benign, benignRejected, attackRejected int64
	serverErrors, transportErrors          int64
}

func (t *serveTotals) add(s *stack) {
	for _, n := range s.nodes {
		o := n.edge.Obs
		t.requests += o.GETRequests.Value() + o.POSTRequests.Value() + o.HEADRequests.Value() + o.OtherRequests.Value()
		t.fetches += n.origin.fetches.Load()
		cm := n.edge.Cache.Metrics()
		t.hits += cm.Hits
		t.misses += cm.Misses
		t.retries += n.resilient.Retries.Value()
		if n.defense != nil {
			t.rejects += n.defense.ShedAbuser.Value() + n.defense.ShedClientRate.Value() + n.defense.ShedClassRate.Value()
			t.collapses += n.defense.Collapsed.Value()
		}
		if n.char != nil {
			snap := n.char.Snapshot()
			t.events += snap.Events
			t.drops += snap.Drops
		}
	}
	t.failovers += s.frontInst.Failovers.Value()
	t.hedges += s.frontInst.Hedges.Value()
	t.clientRequests += s.client.requests()
	t.clientFailures += s.client.failures()
	t.benign += s.client.benign.Load()
	t.benignRejected += s.client.benignRejected.Load()
	t.attackRejected += s.client.attackRejected.Load()
	t.serverErrors += s.client.serverErrors.Load()
	t.transportErrors += s.client.transportErrors.Load()
}

// serve runs serve-hot or serve-hostile. It sets up three times, and
// each stack takes a closed-loop and then an open-loop phase. In a traced
// run stack 0 stays untraced, so that the closed loop on the traced
// stacks has something to be compared with.
func serve(ctx context.Context, r *run, hostile bool) error {
	name := "serve-hot"
	if hostile {
		name = "serve-hostile"
	}
	var tot serveTotals
	// Every stack takes a third of both phases: first its share of the
	// closed loop's two fifths of the time, in quarter-second windows,
	// then its share of the open loop's three fifths, as three runs. A
	// traced run gives the open loop less: it also has the ladder to
	// climb. At smoke-test size every phase is the corpus once through
	// (window and seconds 0).
	window := 250 * time.Millisecond
	windows := max(1, int(r.opt.seconds*0.4/3/window.Seconds()))
	openRuns, openSeconds := 3, r.opt.seconds*0.6/9
	if r.opt.trace {
		openRuns, openSeconds = 1, r.opt.seconds*0.25/3
	}
	if r.opt.short {
		window, openRuns, openSeconds = 0, 1, 0
	}

	var capacity, tracedCapacity []float64
	var opens []openResult
	for k := 0; k < r.corpora(); k++ {
		traced := r.opt.trace && (k > 0 || r.opt.short)
		s, c, err := r.setupStack(ctx, k, hostile, traced)
		if err != nil {
			return err
		}
		rates := r.closedLoop(ctx, s, c, hostile, windows, window)
		if traced {
			tracedCapacity = append(tracedCapacity, rates...)
		} else {
			capacity = append(capacity, rates...)
		}
		for i := 0; i < openRuns && err == nil; i++ {
			var o openResult
			if o, err = r.openLoop(ctx, s, c, openSeconds); err == nil {
				opens = append(opens, o)
			}
		}
		tot.add(s)
		s.close()
		if err != nil {
			return err
		}
	}

	r.attempted += tot.clientRequests
	r.failed += tot.clientFailures
	r.check(tot.clientFailures == 0, "%s: %d of %d requests failed: %d transport errors, %d answered 5xx, %d benign requests refused",
		name, tot.clientFailures, tot.clientRequests, tot.transportErrors, tot.serverErrors, tot.benignRejected)

	var p50s, p99s, svc50, svc99 []float64
	var sent, fetches, offered, dropped, measured int64
	merged := obs.NewHDRHistogram(obs.LatencyHDRConfig())
	for _, o := range opens {
		p50s = append(p50s, quantileMs(o.res.Latency, 0.50))
		p99s = append(p99s, quantileMs(o.res.Latency, 0.99))
		svc50 = append(svc50, quantileMs(o.res.Service, 0.50))
		svc99 = append(svc99, quantileMs(o.res.Service, 0.99))
		sent += o.res.Sent
		fetches += o.fetches
		offered += o.res.Offered
		dropped += o.res.Dropped
		measured += o.res.Measured
		if err := merged.Merge(o.res.Latency); err != nil {
			return err
		}
	}
	fetchRatio := ratio(float64(fetches), float64(sent))
	benignRejectRatio := ratio(float64(tot.benignRejected), float64(tot.benign))
	if hostile {
		r.check(fetchRatio <= 0.5, "serve-hostile: %.3f origin fetches a request in the open loop, want ≤ 0.5", fetchRatio)
		r.check(benignRejectRatio < 0.01, "serve-hostile: %.4f of benign requests refused, want < 0.01", benignRejectRatio)
	} else {
		r.check(tot.rejects+tot.collapses+tot.events == 0, "serve-hot: defend/livechar did work (%d rejects, %d collapses, %d events)", tot.rejects, tot.collapses, tot.events)
	}

	r.m.set("throughput_per_s", bestRate(capacity))
	r.m.set("p50_ms", bestTime(p50s))
	if !r.opt.trace {
		return nil
	}

	r.setSynthMetrics()
	r.m.set("bench.latency_samples", float64(measured))
	r.m.set("bench.trace_overhead_ratio", ratio(bestRate(tracedCapacity), bestRate(capacity)))
	r.m.set("edge.requests", float64(tot.requests))
	r.m.set("edge.origin_fetches", float64(tot.fetches))
	r.m.set("edge.hit_ratio", ratio(float64(tot.hits), float64(tot.hits+tot.misses)))
	r.m.set("edge.origin_fetch_ratio", fetchRatio)
	r.m.set("defend.rejects", float64(tot.rejects))
	r.m.set("defend.collapses", float64(tot.collapses))
	r.m.set("defend.benign_reject_ratio", benignRejectRatio)
	r.m.set("livechar.events", float64(tot.events))
	r.m.set("livechar.drop_ratio", ratio(float64(tot.drops), float64(tot.drops+tot.events)))
	r.m.set("fleet.failovers", float64(tot.failovers))
	r.m.set("fleet.hedges", float64(tot.hedges))
	r.m.set("resilience.retries", float64(tot.retries))
	r.m.set("replay.service_p50_ms", median(svc50))
	r.m.set("replay.service_p99_ms", median(svc99))
	r.m.set("replay.sched_lag_p50_ms", median(p50s)-median(svc50))
	r.m.set("replay.sched_lag_p99_ms", median(p99s)-median(svc99))
	r.m.set("replay.p99_ms", median(p99s))
	r.m.set("replay.p999_ms", quantileMs(merged, 0.999))
	r.m.set("replay.over_limit_ratio", 1-shareAtOrBelow(merged, latencyLimit.Nanoseconds()))
	r.m.set("replay.offered", float64(offered))
	r.m.set("replay.dropped", float64(dropped))

	dur, self := layerTimes(r.rec.recorded())
	r.m.set("edge.serve_self_us_p50", quantile(self[layerEdge], 0.50))
	r.m.set("edge.serve_self_us_p99", quantile(self[layerEdge], 0.99))
	r.m.set("edge.origin_fetch_us_p50", quantile(dur[layerFetch], 0.50))
	r.m.set("defend.admit_us_p50", quantile(dur[layerAdmit], 0.50))
	r.m.set("defend.admit_us_p99", quantile(dur[layerAdmit], 0.99))
	r.m.set("livechar.tap_us_p99", quantile(dur[layerTap], 0.99))
	r.m.set("fleet.front_self_us_p50", quantile(self[layerFront], 0.50))
	r.m.set("fleet.front_self_us_p99", quantile(self[layerFront], 0.99))
	return r.ladder(ctx, hostile)
}

// shareAtOrBelow is the share of h's observations in buckets that end
// at or below v, found by bisection on Quantile.
func shareAtOrBelow(h *obs.HDRHistogram, v int64) float64 {
	if h.Count() == 0 || h.Max() <= v {
		return 1
	}
	lo, hi := 0.0, 1.0 // Quantile(lo) ≤ v < Quantile(hi)
	if h.Quantile(lo) > v {
		return 0
	}
	for i := 0; i < 40; i++ {
		mid := (lo + hi) / 2
		if h.Quantile(mid) <= v {
			lo = mid
		} else {
			hi = mid
		}
	}
	return lo
}

// quantileMs is the q-quantile of h in milliseconds, interpolated inside
// the bucket that holds it. HDRHistogram.Quantile answers with a
// bucket's upper edge, and the buckets are 0.7 % wide: steady runs would
// all read the same edge. Interpolating by how far into the bucket's
// share of the observations q falls keeps the digits the measurement
// has.
func quantileMs(h *obs.HDRHistogram, q float64) float64 {
	edge := h.Quantile(q)
	upTo := shareAtOrBelow(h, edge)
	below := shareAtOrBelow(h, edge-1)
	prev := h.Min()
	if below > 0 {
		prev = h.Quantile(below)
	}
	if upTo <= below || prev > edge {
		return float64(edge) / 1e6
	}
	return (float64(prev) + float64(edge-prev)*(q-below)/(upTo-below)) / 1e6
}
