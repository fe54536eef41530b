package edge

import (
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/logfmt"
)

// Server is one simulated edge server with its own cache.
type Server struct {
	// Name identifies the server ("sea-01").
	Name  string
	Cache *Cache

	// Requests counts requests routed to this server. It is atomic so
	// the count stays exact under concurrent replay and can be scraped
	// while a replay runs.
	Requests atomic.Int64
}

// Pool routes requests across edge servers with consistent hashing over
// the object URL, as a CDN front-ends a rack: the same object always
// lands on the same server, maximizing its cache utility. Pool routing
// and the per-server request counters are safe for concurrent use.
//
// The routing itself lives in Ring — the same ring the multi-process
// fleet front tier (internal/fleet) uses — so the in-process
// simulation and the live fleet agree byte-for-byte on where an object
// lands.
type Pool struct {
	servers []*Server
	byName  map[string]*Server
	ring    *Ring

	// Admission optionally gates cache insertion on miss: when non-nil
	// and false for a URL, the response is served from origin but not
	// cached. CDNs use this to keep one-hit wonders from churning the
	// cache. Concurrent Replay requires a concurrency-safe filter: use
	// ConcurrentSecondHitFilter, not SecondHitFilter.
	Admission func(url string) bool

	// OriginUp, if non-nil, models origin availability at a record's
	// timestamp during Replay. While the origin is down the pool
	// degrades the way the HTTPEdge does: live cache hits still serve,
	// expired entries are served stale (ReplayResult.StaleServes),
	// uncacheable tunnels are shed (Shed), and uncached misses fail
	// (Failed). Nil means always up.
	OriginUp func(t time.Time) bool
}

// SecondHitFilter returns an admission filter implementing the classic
// "cache on second hit" policy: a URL is admitted only once it has been
// requested before, so objects fetched exactly once never displace
// recurring ones. The filter is not safe for concurrent use; replays
// that shard records across goroutines need ConcurrentSecondHitFilter.
func SecondHitFilter() func(url string) bool {
	seen := make(map[string]struct{})
	return func(url string) bool {
		if _, ok := seen[url]; ok {
			return true
		}
		seen[url] = struct{}{}
		return false
	}
}

// ConcurrentSecondHitFilter is SecondHitFilter behind a mutex, safe for
// concurrent Replay. The lock serializes only the admission check — a
// handful of map operations — so contention stays far below the cache
// shard locks the same replay already takes.
func ConcurrentSecondHitFilter() func(url string) bool {
	var mu sync.Mutex
	seen := make(map[string]struct{})
	return func(url string) bool {
		mu.Lock()
		defer mu.Unlock()
		if _, ok := seen[url]; ok {
			return true
		}
		seen[url] = struct{}{}
		return false
	}
}

// vnodesPerServer spreads each server over the ring for balance.
const vnodesPerServer = 64

// NewPool creates n servers, each with a cache of capacityBytes and the
// given TTL.
func NewPool(n int, capacityBytes int64, ttl time.Duration) *Pool {
	if n <= 0 {
		panic("edge: NewPool with n <= 0")
	}
	p := &Pool{
		byName: make(map[string]*Server, n),
		ring:   NewRing(vnodesPerServer),
	}
	for i := 0; i < n; i++ {
		srv := &Server{
			Name:  fmt.Sprintf("edge-%02d", i),
			Cache: NewCache(capacityBytes, ttl, 4),
		}
		p.servers = append(p.servers, srv)
		p.byName[srv.Name] = srv
		p.ring.Add(srv.Name)
	}
	return p
}

// Servers returns the pool's servers.
func (p *Pool) Servers() []*Server { return p.servers }

// Ring exposes the pool's consistent-hash ring.
func (p *Pool) Ring() *Ring { return p.ring }

// Route returns the server responsible for the URL.
func (p *Pool) Route(url string) *Server {
	return p.byName[p.ring.Lookup(url)]
}

// Metrics aggregates cache metrics across servers.
func (p *Pool) Metrics() CacheMetrics {
	var m CacheMetrics
	for _, s := range p.servers {
		sm := s.Cache.Metrics()
		m.Hits += sm.Hits
		m.Misses += sm.Misses
		m.Evictions += sm.Evictions
		m.Expired += sm.Expired
		m.PrefetchedHits += sm.PrefetchedHits
		m.StaleServes += sm.StaleServes
	}
	return m
}

// ReplayResult summarizes a log replay through the edge.
type ReplayResult struct {
	Requests    int64
	Cacheable   int64
	Uncacheable int64
	Hits        int64
	// PrefetchedHits counts the hits served from entries a prefetcher
	// inserted (see internal/prefetch).
	PrefetchedHits int64
	// OriginBytes is the traffic fetched from origin (misses and
	// uncacheable tunnels).
	OriginBytes int64
	// ServedBytes is the total response traffic actually delivered
	// (shed and failed requests deliver nothing).
	ServedBytes int64
	// StaleServes counts expired cache entries served while the origin
	// was down (see Pool.OriginUp).
	StaleServes int64
	// Shed counts uncacheable tunnels refused while the origin was down.
	Shed int64
	// Failed counts requests with no usable response: origin down and
	// nothing — live or stale — in cache.
	Failed int64
}

// HitRatio returns hits over cacheable requests.
func (r ReplayResult) HitRatio() float64 {
	if r.Cacheable == 0 {
		return 0
	}
	return float64(r.Hits) / float64(r.Cacheable)
}

// Availability returns the fraction of requests answered with a usable
// response (anything not shed or failed).
func (r ReplayResult) Availability() float64 {
	if r.Requests == 0 {
		return 0
	}
	return float64(r.Requests-r.Shed-r.Failed) / float64(r.Requests)
}

// Replay streams one record through the pool: uncacheable requests
// tunnel to origin; cacheable GETs consult the responsible server's
// cache and insert on miss. The record's own Cache field is ignored —
// the simulation recomputes hits from its cache state — except that
// CacheUncacheable marks the object uncacheable. With OriginUp set,
// records arriving while the origin is down take the degraded path
// (stale serves, sheds, failures) instead of fetching.
func (p *Pool) Replay(r *logfmt.Record, res *ReplayResult) {
	res.Requests++
	srv := p.Route(r.URL)
	srv.Requests.Add(1)
	up := p.OriginUp == nil || p.OriginUp(r.Time)
	if r.Cache == logfmt.CacheUncacheable || r.Method != "GET" {
		if !up {
			res.Shed++
			return
		}
		res.Uncacheable++
		res.OriginBytes += r.Bytes
		res.ServedBytes += r.Bytes
		return
	}
	res.Cacheable++
	use := Demand
	if !up {
		use = Outage
	}
	switch got := srv.Cache.Read(r.URL, r.Time, use); {
	case got.State == Fresh:
		res.Hits++
		if got.Prefetched {
			res.PrefetchedHits++
		}
		res.ServedBytes += r.Bytes
		return
	case !up && got.State == Expired:
		res.StaleServes++
		res.ServedBytes += r.Bytes
		return
	case !up:
		res.Failed++
		return
	}
	res.OriginBytes += r.Bytes
	res.ServedBytes += r.Bytes
	if p.Admission != nil && !p.Admission(r.URL) {
		return
	}
	srv.Cache.Insert(r.URL, r.Bytes, r.Time, false)
}
