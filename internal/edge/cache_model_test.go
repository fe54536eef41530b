package edge

import (
	"fmt"
	"testing"
	"time"

	"repro/internal/stats"
)

// modelCache is the reference the real cache is checked against: one
// shard as a slice in recency order (front first), everything by linear
// scan, the rules of Read and put written out with nothing shared.
type modelCache struct {
	capBytes int64
	ttl      time.Duration
	lru      []*entry
	m        CacheMetrics
}

func (c *modelCache) find(key string) int {
	for i, e := range c.lru {
		if e.key == key {
			return i
		}
	}
	return -1
}

func (c *modelCache) touch(i int) {
	e := c.lru[i]
	copy(c.lru[1:i+1], c.lru[:i])
	c.lru[0] = e
}

func (c *modelCache) bytes() (n int64) {
	for _, e := range c.lru {
		n += e.size
	}
	return n
}

func (c *modelCache) read(key string, now time.Time, use Use) Entry {
	i := c.find(key)
	if i < 0 {
		if use != Probe {
			c.m.Misses++
		}
		return Entry{}
	}
	e := c.lru[i]
	got := Entry{State: Fresh, Payload: e.payload, Prefetched: e.prefetched}
	if now.After(e.expires) {
		got.State = Expired
	}
	switch {
	case use == Probe:
	case got.State == Fresh:
		c.touch(i)
		c.m.Hits++
		if e.prefetched {
			c.m.PrefetchedHits++
		}
	default:
		c.m.Misses++
		c.m.Expired++
	}
	return got
}

func (c *modelCache) put(key string, size int64, now time.Time, prefetched bool, payload any) {
	size = max(size, 0)
	i := c.find(key)
	if size > c.capBytes {
		if i >= 0 && !prefetched {
			c.lru = append(c.lru[:i], c.lru[i+1:]...)
		}
		return
	}
	if i < 0 {
		c.lru = append(c.lru, &entry{key: key})
		i = len(c.lru) - 1
	}
	c.touch(i)
	*c.lru[0] = entry{key: key, size: size, expires: now.Add(c.ttl), prefetched: prefetched, payload: payload}
	for c.bytes() > c.capBytes {
		c.lru = c.lru[:len(c.lru)-1]
		c.m.Evictions++
	}
}

// TestCacheAgainstModel drives seeded random Insert/Store/Read sequences
// on an advancing clock through a one-shard cache and the model, and
// requires the same answer to every read, the same counters, bytes and
// length after every step — and that no read returns a payload other
// than the last one stored under its key.
func TestCacheAgainstModel(t *testing.T) {
	const capBytes, ttl = 1000, time.Minute
	for seed := uint64(1); seed <= 20; seed++ {
		rng := stats.NewRNG(seed)
		c := NewCache(capBytes, ttl, 1)
		m := &modelCache{capBytes: capBytes, ttl: ttl}
		lastStored := map[string]any{}
		now := t0
		for step := 0; step < 3000; step++ {
			now = now.Add(time.Duration(rng.Intn(int(ttl / 4))))
			key := fmt.Sprintf("k%d", rng.Intn(14))
			size := int64(rng.Intn(capBytes/3)) - 5 // a few negative, clamped to 0
			if rng.Intn(25) == 0 {
				size = capBytes + 1 + int64(rng.Intn(100)) // does not fit
			}
			what := fmt.Sprintf("seed %d step %d key %s", seed, step, key)
			switch op := rng.Intn(10); {
			case op < 2:
				prefetched := rng.Intn(2) == 0
				c.Insert(key, size, now, prefetched)
				m.put(key, size, now, prefetched, nil)
			case op < 4:
				payload := step
				lastStored[key] = payload
				c.Store(key, size, now, payload)
				m.put(key, size, now, false, payload)
			default:
				use := Use(rng.Intn(2))
				got, want := c.Read(key, now, use), m.read(key, now, use)
				if got != want {
					t.Fatalf("%s: Read(use %d) = %+v, model %+v", what, use, got, want)
				}
				if got.Payload != nil && got.Payload != lastStored[key] {
					t.Fatalf("%s: read payload %v, last stored %v", what, got.Payload, lastStored[key])
				}
			}
			if got, want := c.Metrics(), m.m; got != want {
				t.Fatalf("%s: metrics %+v, model %+v", what, got, want)
			}
			if c.Bytes() != m.bytes() || c.Len() != len(m.lru) {
				t.Fatalf("%s: %d bytes in %d entries, model %d in %d", what, c.Bytes(), c.Len(), m.bytes(), len(m.lru))
			}
		}
		if m.m.Hits == 0 || m.m.Expired == 0 || m.m.Evictions == 0 || m.m.PrefetchedHits == 0 {
			t.Errorf("seed %d left a path unexercised: %+v", seed, m.m)
		}
	}
}
