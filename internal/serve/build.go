package serve

import (
	"time"

	"repro/internal/defend"
	"repro/internal/edge"
	"repro/internal/obs"
	"repro/internal/resilience"
)

// Parts is what differs between the edge stacks Build assembles. The
// zero value is the stack liveedge serves; every other caller states
// its departures from that node as the fields it sets, and adjusts the
// rest (a brownout script, a breaker's open interval) on the built
// Core.
type Parts struct {
	// Origin is what the faulty origin wraps (default: the
	// manifest-shaped JSONOrigin behind a WildcardOrigin, 2 ms each).
	Origin edge.Origin
	// Cache is the edge cache (default: 32 MiB, 1 min TTL, 4 shards).
	Cache *edge.Cache
	// Now is the stack's clock (default: wall time). On a caller's
	// clock nothing sleeps — injected latency and retry backoff are
	// no-ops — and no attempt is timed out on wall time.
	Now func() time.Time
	// Bare leaves out the resilience path: the edge fetches from the
	// faulty origin once per miss, with no retries, breaker, serve-stale
	// or shedding.
	Bare bool
	// FaultRate and FaultSeed drive the faulty origin; FaultSeed+1
	// seeds the backoff jitter.
	FaultRate float64
	FaultSeed uint64
	// Defend, if non-nil, fronts the cache.
	Defend *defend.Defender
	// Registry receives every metric the stack reports (default: a
	// private one).
	Registry *obs.Registry
}

// Core is an assembled edge stack: an HTTPEdge over its cache, a
// FaultyOrigin around the origin, and — unless Bare — the resilience
// path between them, all instrumented into Registry.
type Core struct {
	Edge      *edge.HTTPEdge
	Faulty    *resilience.FaultyOrigin
	Origin    *resilience.ResilientOrigin // nil when Bare
	Breaker   *resilience.Breaker         // nil when Bare
	DefendObs *defend.Instrumentation     // nil without Parts.Defend
	Registry  *obs.Registry
}

// Build wires one edge stack. The edge reports its edge_* push
// counters, the defense defend_*, and the resilience path resilience_*
// with its breaker's state; the degraded breaker sheds machine traffic
// and a failed fetch is answered from the held copy. Build registers no
// pull metric over the cache: one would keep the cache alive as long as
// the registry, which only a long-lived node wants (Node adds them).
func Build(p Parts) *Core {
	if p.Origin == nil {
		p.Origin = &edge.WildcardOrigin{
			Inner:   &edge.JSONOrigin{Articles: 40, Latency: 2 * time.Millisecond},
			Latency: 2 * time.Millisecond,
		}
	}
	if p.Cache == nil {
		p.Cache = edge.NewCache(32<<20, time.Minute, 4)
	}
	if p.Registry == nil {
		p.Registry = obs.NewRegistry()
	}
	var sleep func(time.Duration)
	attemptTimeout := time.Second
	if p.Now != nil {
		sleep, attemptTimeout = func(time.Duration) {}, 0
	}
	c := &Core{Registry: p.Registry}
	c.Faulty = &resilience.FaultyOrigin{
		Inner:     p.Origin,
		Seed:      p.FaultSeed,
		ErrorRate: p.FaultRate,
		Now:       p.Now,
		Sleep:     sleep,
	}
	c.Edge = &edge.HTTPEdge{
		Cache:  p.Cache,
		Origin: c.Faulty,
		Now:    p.Now,
		Obs:    edge.NewInstrumentation(p.Registry),
	}
	if p.Defend != nil {
		c.DefendObs = p.Defend.Instrument(p.Registry)
		c.Edge.Defend = p.Defend
	}
	if p.Bare {
		return c
	}
	c.Breaker = &resilience.Breaker{FailureThreshold: 5, OpenFor: 200 * time.Millisecond, Now: p.Now}
	c.Origin = &resilience.ResilientOrigin{
		Inner:          c.Faulty,
		Retry:          resilience.Backoff{Base: 5 * time.Millisecond, Cap: 50 * time.Millisecond, Attempts: 3},
		Breaker:        c.Breaker,
		AttemptTimeout: attemptTimeout,
		Seed:           p.FaultSeed + 1,
		Sleep:          sleep,
		Obs:            resilience.NewInstrumentation(p.Registry),
	}
	resilience.RegisterBreaker(p.Registry, c.Breaker)
	c.Edge.Origin = c.Origin
	c.Edge.ServeStale = true
	c.Edge.Degraded = c.Origin.Degraded
	return c
}
