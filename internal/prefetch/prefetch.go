// Package prefetch closes the loop on the paper's §5.2 implication:
// given the ngram request-prediction model, a CDN can put the predicted
// next objects where the client will find them. The Simulator replays a
// log stream through an edge pool and, from one prediction per record,
// books both delivery mechanisms: prefetching into the edge cache, which
// converts misses into hits, and HTTP server push to the client, which
// removes the next request altogether. Compare adds a plain replay as
// the baseline, so a CDN operator can weigh the hit-ratio improvement
// against the wasted speculative traffic.
package prefetch

import (
	"time"

	"repro/internal/edge"
	"repro/internal/flows"
	"repro/internal/logfmt"
)

// Predictor supplies the next-object predictions: an *ngram.Model, or
// an *ngram.TimedModel, whose ExpectedGap also filters them. Order is
// how much per-client history feeds each prediction.
type Predictor interface {
	PredictTopK(history []string, k int) []string
	Order() int
}

// gapPredictor is a Predictor that knows the typical interarrival gap of
// a transition (the paper's §5.2 future work).
type gapPredictor interface {
	ExpectedGap(prev, next string) (time.Duration, bool)
}

const (
	// defaultObjectSize is assumed for predicted objects never seen
	// before (bytes).
	defaultObjectSize = 1024
	// pushLifetime is how long a pushed response stays usable at the
	// client; clients evict pushed data quickly.
	pushLifetime = 30 * time.Second
)

// Config parameterizes the prefetching simulation.
type Config struct {
	// K is how many predicted next objects to prefetch and push per
	// request.
	K int
	// Servers, CacheBytes, and TTL shape the edge pool.
	Servers    int
	CacheBytes int64
	TTL        time.Duration
}

// DefaultConfig returns a modest edge: 4 servers, 64 MiB each, 60 s TTL,
// prefetching the single most likely next object.
func DefaultConfig() Config {
	return Config{
		K:          1,
		Servers:    4,
		CacheBytes: 64 << 20,
		TTL:        time.Minute,
	}
}

func (c *Config) sanitize() {
	if c.K < 1 {
		c.K = 1
	}
	if c.Servers < 1 {
		c.Servers = 1
	}
	if c.CacheBytes <= 0 {
		c.CacheBytes = 64 << 20
	}
	if c.TTL <= 0 {
		c.TTL = time.Minute
	}
}

// Result reports one simulation run.
type Result struct {
	edge.ReplayResult
	// PrefetchesIssued counts speculative inserts and PrefetchedBytes
	// their estimated origin traffic; the hits they served are the
	// embedded ReplayResult's PrefetchedHits.
	PrefetchesIssued int64
	PrefetchedBytes  int64
	// Push accounts server push of the same predictions.
	Push PushResult
}

// WasteRatio estimates the share of prefetches that never served a hit.
// A prefetched entry can serve several hits, so the ratio is clamped at
// zero.
func (r Result) WasteRatio() float64 {
	if r.PrefetchesIssued == 0 {
		return 0
	}
	w := 1 - float64(r.PrefetchedHits)/float64(r.PrefetchesIssued)
	if w < 0 {
		w = 0
	}
	return w
}

// PushResult accounts server push: the simulator tracks each client's
// pushed-object set and counts how many requests a previously pushed
// response satisfied versus how many pushed bytes went unused.
type PushResult struct {
	// Requests is the number of replayed GET requests.
	Requests int64
	// Eliminated counts requests satisfied by a pushed response: the
	// client never had to ask.
	Eliminated int64
	// Pushes and PushedBytes count push transmissions.
	Pushes      int64
	PushedBytes int64
	// UsedBytes is the pushed traffic that satisfied a request.
	UsedBytes int64
}

// EliminationRate returns the share of requests removed by push.
func (r PushResult) EliminationRate() float64 {
	if r.Requests == 0 {
		return 0
	}
	return float64(r.Eliminated) / float64(r.Requests)
}

// WastedBytes returns pushed bytes that never satisfied a request.
func (r PushResult) WastedBytes() int64 { return r.PushedBytes - r.UsedBytes }

// Simulator replays records with prediction-driven prefetching and
// push. Records must arrive in (approximately) time order, as they do
// from the generator or a log file. Simulator is not safe for concurrent
// use.
type Simulator struct {
	cfg  Config
	pred Predictor
	gaps gapPredictor // pred's gap estimates; nil when it has none
	pool *edge.Pool
	res  Result

	history map[flows.ClientKey][]string
	pushed  map[flows.ClientKey]map[string]time.Time // URL → expiry at the client
	sizes   map[string]int64
}

// NewSimulator builds a simulator around a trained predictor.
func NewSimulator(pred Predictor, cfg Config) *Simulator {
	cfg.sanitize()
	s := &Simulator{
		cfg:     cfg,
		pred:    pred,
		pool:    edge.NewPool(cfg.Servers, cfg.CacheBytes, cfg.TTL),
		history: make(map[flows.ClientKey][]string),
		pushed:  make(map[flows.ClientKey]map[string]time.Time),
		sizes:   make(map[string]int64),
	}
	s.gaps, _ = pred.(gapPredictor)
	return s
}

// Pool exposes the underlying edge pool (for metric inspection).
func (s *Simulator) Pool() *edge.Pool { return s.pool }

// Observe replays one record under its canonical URL, settles it against
// what was pushed to its client, and then predicts the client's next
// objects once: each is prefetched into the edge and pushed to the
// client. A prediction whose known gap from this URL exceeds the cache
// TTL is skipped, since neither copy would still be there. Prefetching
// assumes instantaneous origin fetches (an upper bound on the benefit;
// the paper frames it the same way). Only GETs can be satisfied by a
// push; other methods still advance the client's history.
func (s *Simulator) Observe(r *logfmt.Record) {
	url := logfmt.CanonicalURL(r.URL)
	rr := *r
	rr.URL = url
	s.pool.Replay(&rr, &s.res.ReplayResult)
	if r.Bytes > 0 {
		s.sizes[url] = r.Bytes
	}
	key := flows.ClientKeyFor(r)
	if r.Method == "GET" {
		s.res.Push.Requests++
		if exp, ok := s.pushed[key][url]; ok {
			delete(s.pushed[key], url)
			if r.Time.Before(exp) {
				s.res.Push.Eliminated++
				s.res.Push.UsedBytes += s.size(url)
			}
		}
	}
	h := append(s.history[key], url)
	if n := s.pred.Order(); len(h) > n {
		h = h[len(h)-n:]
	}
	s.history[key] = h

	for _, next := range s.pred.PredictTopK(h, s.cfg.K) {
		if s.gaps != nil {
			if gap, ok := s.gaps.ExpectedGap(url, next); ok && gap > s.cfg.TTL {
				continue
			}
		}
		s.prefetch(next, r.Time)
		if next != url {
			s.push(key, next, r.Time)
		}
	}
}

func (s *Simulator) size(url string) int64 {
	if size, ok := s.sizes[url]; ok {
		return size
	}
	return defaultObjectSize
}

func (s *Simulator) prefetch(url string, now time.Time) {
	srv := s.pool.Route(url)
	if srv.Cache.Read(url, now, edge.Probe).State == edge.Fresh {
		return // already there: no duplicate speculative insert
	}
	size := s.size(url)
	srv.Cache.Insert(url, size, now, true)
	s.res.PrefetchesIssued++
	s.res.PrefetchedBytes += size
}

func (s *Simulator) push(key flows.ClientKey, url string, now time.Time) {
	pm := s.pushed[key]
	if exp, ok := pm[url]; ok && now.Before(exp) {
		return // already fresh at the client
	}
	if pm == nil {
		pm = make(map[string]time.Time)
		s.pushed[key] = pm
	}
	pm[url] = now.Add(pushLifetime)
	s.res.Push.Pushes++
	s.res.Push.PushedBytes += s.size(url)
}

// Result returns the accumulated simulation result.
func (s *Simulator) Result() Result { return s.res }

// Comparison holds a baseline-vs-prefetch pair over the same stream.
type Comparison struct {
	Baseline edge.ReplayResult
	Prefetch Result
}

// HitRatioDelta returns the absolute hit-ratio improvement.
func (c Comparison) HitRatioDelta() float64 {
	return c.Prefetch.HitRatio() - c.Baseline.HitRatio()
}

// Simulate replays records through a simulator around pred: the
// prefetching half of Compare, for a sweep that needs the baseline once.
func Simulate(pred Predictor, cfg Config, records func(func(*logfmt.Record))) Result {
	sim := NewSimulator(pred, cfg)
	records(sim.Observe)
	return sim.Result()
}

// Compare replays records through a plain pool and through a simulator
// with identical cache shape, returning both outcomes. records is
// iterated twice via the replay function.
func Compare(pred Predictor, cfg Config, records func(func(*logfmt.Record))) Comparison {
	cfg.sanitize()
	var cmp Comparison
	base := edge.NewPool(cfg.Servers, cfg.CacheBytes, cfg.TTL)
	records(func(r *logfmt.Record) {
		rr := *r
		rr.URL = logfmt.CanonicalURL(rr.URL)
		base.Replay(&rr, &cmp.Baseline)
	})
	cmp.Prefetch = Simulate(pred, cfg, records)
	return cmp
}
