package edge

import (
	"fmt"
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
	// cache.
	Admission func(url string) bool
}

// SecondHitFilter returns an admission filter implementing the classic
// "cache on second hit" policy: a URL is admitted only once it has been
// requested before, so objects fetched exactly once never displace
// recurring ones. The filter is not safe for concurrent use.
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
	// ServedBytes is the total response traffic delivered.
	ServedBytes int64
}

// HitRatio returns hits over cacheable requests.
func (r ReplayResult) HitRatio() float64 {
	if r.Cacheable == 0 {
		return 0
	}
	return float64(r.Hits) / float64(r.Cacheable)
}

// Replay streams one record through the pool: uncacheable requests
// tunnel to origin; cacheable GETs consult the responsible server's
// cache and insert on miss. The record's own Cache field is ignored —
// the simulation recomputes hits from its cache state — except that
// CacheUncacheable marks the object uncacheable. The origin is always
// reachable here; serving through an origin outage is HTTPEdge's job.
func (p *Pool) Replay(r *logfmt.Record, res *ReplayResult) {
	res.Requests++
	srv := p.Route(r.URL)
	srv.Requests.Add(1)
	res.ServedBytes += r.Bytes
	if r.Cache == logfmt.CacheUncacheable || r.Method != "GET" {
		res.Uncacheable++
		res.OriginBytes += r.Bytes
		return
	}
	res.Cacheable++
	if got := srv.Cache.Read(r.URL, r.Time, Demand); got.State == Fresh {
		res.Hits++
		if got.Prefetched {
			res.PrefetchedHits++
		}
		return
	}
	res.OriginBytes += r.Bytes
	if p.Admission != nil && !p.Admission(r.URL) {
		return
	}
	srv.Cache.Insert(r.URL, r.Bytes, r.Time, false)
}
