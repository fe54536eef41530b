// Package prefetch closes the loop on the paper's §5.2 implication:
// given the ngram request-prediction model, a CDN can prefetch the
// predicted next objects into the edge cache to convert misses into
// hits. The Simulator replays a log stream through an edge pool twice —
// once plain, once with prediction-driven prefetching — and reports the
// hit-ratio improvement and the wasted prefetch traffic, the trade-off a
// CDN operator would evaluate.
package prefetch

import (
	"time"

	"repro/internal/edge"
	"repro/internal/flows"
	"repro/internal/logfmt"
	"repro/internal/ngram"
)

// Config parameterizes the prefetching simulation.
type Config struct {
	// K is how many predicted next objects to prefetch per request.
	K int
	// HistoryLen is how much per-client history feeds each prediction
	// (bounded by the model order).
	HistoryLen int
	// Servers, CacheBytes, and TTL shape the edge pool.
	Servers    int
	CacheBytes int64
	TTL        time.Duration
	// DefaultObjectSize is assumed for predicted objects never seen
	// before (bytes).
	DefaultObjectSize int64
}

// DefaultConfig returns a modest edge: 4 servers, 64 MiB each, 60 s TTL,
// prefetching the single most likely next object.
func DefaultConfig() Config {
	return Config{
		K:                 1,
		HistoryLen:        1,
		Servers:           4,
		CacheBytes:        64 << 20,
		TTL:               time.Minute,
		DefaultObjectSize: 1024,
	}
}

func (c *Config) sanitize() {
	if c.K < 1 {
		c.K = 1
	}
	if c.HistoryLen < 1 {
		c.HistoryLen = 1
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
	if c.DefaultObjectSize <= 0 {
		c.DefaultObjectSize = 1024
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

// Simulator replays records with prediction-driven prefetching. Records
// must arrive in (approximately) time order, as they do from the
// generator or a log file. Simulator is not safe for concurrent use.
type Simulator struct {
	cfg   Config
	model *ngram.Model
	pool  *edge.Pool
	res   Result

	history map[flows.ClientKey][]string
	sizes   map[string]int64
}

// NewSimulator builds a simulator around a trained model.
func NewSimulator(model *ngram.Model, cfg Config) *Simulator {
	cfg.sanitize()
	return &Simulator{
		cfg:     cfg,
		model:   model,
		pool:    edge.NewPool(cfg.Servers, cfg.CacheBytes, cfg.TTL),
		history: make(map[flows.ClientKey][]string),
		sizes:   make(map[string]int64),
	}
}

// Pool exposes the underlying edge pool (for metric inspection).
func (s *Simulator) Pool() *edge.Pool { return s.pool }

// Observe replays one record and then prefetches the predicted next
// objects for the record's client. Prefetching assumes instantaneous
// origin fetches (an upper bound on the benefit; the paper frames it the
// same way).
func (s *Simulator) Observe(r *logfmt.Record) {
	for _, pred := range s.model.PredictTopK(s.observe(r), s.cfg.K) {
		s.prefetch(pred, r.Time)
	}
}

// observe replays r through the pool under its canonical URL and returns
// the client's history with it appended — what the next prediction is
// made from.
func (s *Simulator) observe(r *logfmt.Record) (history []string) {
	rr := *r
	rr.URL = logfmt.CanonicalURL(r.URL)
	s.pool.Replay(&rr, &s.res.ReplayResult)
	if r.Bytes > 0 {
		s.sizes[rr.URL] = r.Bytes
	}
	key := flows.ClientKeyFor(r)
	h := append(s.history[key], rr.URL)
	if len(h) > s.cfg.HistoryLen {
		h = h[len(h)-s.cfg.HistoryLen:]
	}
	s.history[key] = h
	return h
}

func (s *Simulator) prefetch(url string, now time.Time) {
	srv := s.pool.Route(url)
	if srv.Cache.Read(url, now, edge.Probe).State == edge.Fresh {
		return // already there: no duplicate speculative insert
	}
	size, ok := s.sizes[url]
	if !ok {
		size = s.cfg.DefaultObjectSize
	}
	srv.Cache.Insert(url, size, now, true)
	s.res.PrefetchesIssued++
	s.res.PrefetchedBytes += size
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

// Simulate replays records through a prefetching simulator around model:
// the prefetching half of Compare, for a sweep that needs the baseline
// once.
func Simulate(model *ngram.Model, cfg Config, records func(func(*logfmt.Record))) Result {
	sim := NewSimulator(model, cfg)
	records(func(r *logfmt.Record) { sim.Observe(r) })
	return sim.Result()
}

// Compare replays records through a plain pool and through a prefetching
// simulator with identical cache shape, returning both outcomes.
// records is iterated twice via the replay function.
func Compare(model *ngram.Model, cfg Config, records func(func(*logfmt.Record))) Comparison {
	cfg.sanitize()
	var cmp Comparison
	base := edge.NewPool(cfg.Servers, cfg.CacheBytes, cfg.TTL)
	records(func(r *logfmt.Record) {
		rr := *r
		rr.URL = logfmt.CanonicalURL(rr.URL)
		base.Replay(&rr, &cmp.Baseline)
	})
	cmp.Prefetch = Simulate(model, cfg, records)
	return cmp
}
