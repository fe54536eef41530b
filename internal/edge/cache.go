// Package edge simulates a CDN edge: a sharded in-memory LRU cache with
// TTL expiry, a consistent-hash pool of edge servers, an origin model,
// and a log replayer that measures the cache behavior of a request
// stream. It closes the loop on the paper's §5.2 implication — that
// ngram-predicted prefetching can improve the cache hit ratio — by
// actually running predicted prefetches against the simulated edge
// (internal/prefetch). It also provides a real net/http caching proxy
// used by the liveedge example.
package edge

import (
	"container/list"
	"hash/fnv"
	"sync"
	"time"
)

// CacheMetrics counts cache outcomes. Retrieve a consistent snapshot
// with Cache.Metrics.
type CacheMetrics struct {
	Hits      int64
	Misses    int64
	Evictions int64
	// Expired counts Demand reads that found an expired entry (each is
	// also a miss).
	Expired int64
	// PrefetchedHits counts hits whose entry was inserted by a prefetch
	// rather than on demand.
	PrefetchedHits int64
}

// HitRatio returns Hits / (Hits + Misses), or 0 when empty.
func (m CacheMetrics) HitRatio() float64 {
	tot := m.Hits + m.Misses
	if tot == 0 {
		return 0
	}
	return float64(m.Hits) / float64(tot)
}

// State is what a read found under a key.
type State uint8

const (
	// Absent: no entry.
	Absent State = iota
	// Fresh: an entry inside its TTL.
	Fresh
	// Expired: an entry past its TTL. It stays resident — byte-accounted
	// and LRU-evictable like any other — until it is evicted or the next
	// insert under its key overwrites it, so a caller whose origin fetch
	// then fails can still answer from it.
	Expired
)

// Use says what a read is for, which decides what it counts and whether
// it refreshes recency.
type Use uint8

const (
	// Probe only looks: no counter moves, recency is untouched.
	Probe Use = iota
	// Demand answers a request: a Fresh entry is a hit and becomes most
	// recent; Expired and Absent are misses.
	Demand
)

// Entry is the result of one Read.
type Entry struct {
	State State
	// Payload is what the last Store under the key carried (nil after an
	// Insert); Prefetched reports a speculative insert. Both are zero
	// when State is Absent.
	Payload    any
	Prefetched bool
}

// entry is one cached object.
type entry struct {
	key        string
	size       int64
	expires    time.Time
	prefetched bool
	payload    any
	elem       *list.Element
}

// Cache is a sharded LRU cache with per-entry TTL, keyed by URL.
// Capacity is bounded by total byte size per shard. All methods are safe
// for concurrent use.
type Cache struct {
	shards []*cacheShard
	mask   uint64
	ttl    time.Duration
}

type cacheShard struct {
	mu       sync.Mutex
	entries  map[string]*entry
	lru      *list.List // front = most recent
	capBytes int64
	curBytes int64
	metrics  CacheMetrics
}

// NewCache creates a cache with the given total byte capacity, TTL, and
// shard count (rounded up to a power of two; values < 1 become 1).
func NewCache(capacityBytes int64, ttl time.Duration, shards int) *Cache {
	if capacityBytes <= 0 {
		panic("edge: NewCache with non-positive capacity")
	}
	if ttl <= 0 {
		panic("edge: NewCache with non-positive TTL")
	}
	n := 1
	for n < shards {
		n <<= 1
	}
	c := &Cache{shards: make([]*cacheShard, n), mask: uint64(n - 1), ttl: ttl}
	per := capacityBytes / int64(n)
	if per < 1 {
		per = 1
	}
	for i := range c.shards {
		c.shards[i] = &cacheShard{
			entries:  make(map[string]*entry),
			lru:      list.New(),
			capBytes: per,
		}
	}
	return c
}

// TTL returns the cache's entry lifetime.
func (c *Cache) TTL() time.Duration { return c.ttl }

func (c *Cache) shardFor(key string) *cacheShard {
	h := fnv.New64a()
	h.Write([]byte(key))
	return c.shards[h.Sum64()&c.mask]
}

// Read is the cache's one lookup: it reports the entry under key at the
// given simulated time, with its payload, under a single shard lock.
// What it counts follows use.
func (c *Cache) Read(key string, now time.Time, use Use) Entry {
	s := c.shardFor(key)
	s.mu.Lock()
	defer s.mu.Unlock()
	e, ok := s.entries[key]
	if !ok {
		if use != Probe {
			s.metrics.Misses++
		}
		return Entry{}
	}
	got := Entry{State: Fresh, Payload: e.payload, Prefetched: e.prefetched}
	if now.After(e.expires) {
		got.State = Expired
	}
	switch {
	case use == Probe:
	case got.State == Fresh:
		s.lru.MoveToFront(e.elem)
		s.metrics.Hits++
		if e.prefetched {
			s.metrics.PrefetchedHits++
		}
	default:
		s.metrics.Misses++
		s.metrics.Expired++
	}
	return got
}

// Lookup reports whether a Demand read finds key fresh.
func (c *Cache) Lookup(key string, now time.Time) bool {
	return c.Read(key, now, Demand).State == Fresh
}

// Insert stores key with the given body size and no payload, evicting
// LRU entries as needed. prefetched marks entries inserted speculatively.
// An object larger than a shard's capacity is not cached; unless it is a
// prefetch, it also displaces the entry already under its key.
func (c *Cache) Insert(key string, size int64, now time.Time, prefetched bool) {
	c.put(key, size, now, prefetched, nil)
}

// Store is Insert for an on-demand entry that carries a payload — the
// value later reads return. size is what the payload is accounted at.
func (c *Cache) Store(key string, size int64, now time.Time, payload any) {
	c.put(key, size, now, false, payload)
}

func (c *Cache) put(key string, size int64, now time.Time, prefetched bool, payload any) {
	if size < 0 {
		size = 0
	}
	s := c.shardFor(key)
	s.mu.Lock()
	defer s.mu.Unlock()
	e, ok := s.entries[key]
	if size > s.capBytes {
		// The object no longer fits, so an older copy of it must not go on
		// answering in its place. A prefetch is only a guess at the object
		// and displaces nothing.
		if ok && !prefetched {
			s.remove(e)
		}
		return
	}
	if ok {
		s.curBytes += size - e.size
		s.lru.MoveToFront(e.elem)
	} else {
		e = &entry{key: key}
		e.elem = s.lru.PushFront(e)
		s.entries[key] = e
		s.curBytes += size
	}
	e.size, e.expires, e.prefetched, e.payload = size, now.Add(c.ttl), prefetched, payload
	for s.curBytes > s.capBytes {
		back := s.lru.Back()
		if back == nil {
			break
		}
		s.remove(back.Value.(*entry))
		s.metrics.Evictions++
	}
}

// remove must be called with the shard lock held.
func (s *cacheShard) remove(e *entry) {
	s.lru.Remove(e.elem)
	delete(s.entries, e.key)
	s.curBytes -= e.size
}

// Len returns the number of resident entries, expired ones included.
func (c *Cache) Len() int {
	n := 0
	for _, s := range c.shards {
		s.mu.Lock()
		n += len(s.entries)
		s.mu.Unlock()
	}
	return n
}

// Bytes returns the current cached byte total.
func (c *Cache) Bytes() int64 {
	var n int64
	for _, s := range c.shards {
		s.mu.Lock()
		n += s.curBytes
		s.mu.Unlock()
	}
	return n
}

// Metrics returns a snapshot of aggregate cache metrics.
func (c *Cache) Metrics() CacheMetrics {
	var m CacheMetrics
	for _, s := range c.shards {
		s.mu.Lock()
		m.Hits += s.metrics.Hits
		m.Misses += s.metrics.Misses
		m.Evictions += s.metrics.Evictions
		m.Expired += s.metrics.Expired
		m.PrefetchedHits += s.metrics.PrefetchedHits
		s.mu.Unlock()
	}
	return m
}
