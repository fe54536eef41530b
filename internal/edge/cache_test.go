package edge

import (
	"fmt"
	"sync"
	"testing"
	"time"
)

var t0 = time.Date(2019, 5, 1, 0, 0, 0, 0, time.UTC)

func TestCacheHitMiss(t *testing.T) {
	c := NewCache(1<<20, time.Minute, 4)
	if c.Lookup("a", t0) {
		t.Fatal("empty cache hit")
	}
	c.Insert("a", 100, t0, false)
	if !c.Lookup("a", t0.Add(time.Second)) {
		t.Fatal("inserted entry missed")
	}
	m := c.Metrics()
	if m.Hits != 1 || m.Misses != 1 {
		t.Errorf("metrics = %+v", m)
	}
}

func TestCacheTTLExpiry(t *testing.T) {
	c := NewCache(1<<20, time.Minute, 1)
	c.Insert("a", 100, t0, false)
	if !c.Lookup("a", t0.Add(59*time.Second)) {
		t.Error("entry expired early")
	}
	if c.Lookup("a", t0.Add(61*time.Second)) {
		t.Error("entry served after TTL")
	}
	if m := c.Metrics(); m.Expired != 1 {
		t.Errorf("expired = %d", m.Expired)
	}
	// The expired entry stays resident, byte-accounted, until evicted or
	// overwritten.
	if c.Len() != 1 || c.Bytes() != 100 {
		t.Errorf("after expiry: len = %d, bytes = %d, want 1 and 100", c.Len(), c.Bytes())
	}
	c.Insert("a", 40, t0.Add(62*time.Second), false)
	if c.Len() != 1 || c.Bytes() != 40 || !c.Lookup("a", t0.Add(63*time.Second)) {
		t.Errorf("after overwrite: len = %d, bytes = %d", c.Len(), c.Bytes())
	}
}

func TestCacheLRUEviction(t *testing.T) {
	c := NewCache(300, time.Hour, 1)
	c.Insert("a", 100, t0, false)
	c.Insert("b", 100, t0, false)
	c.Insert("c", 100, t0, false)
	// Touch a so b is LRU.
	c.Lookup("a", t0)
	c.Insert("d", 100, t0, false)
	if c.Lookup("b", t0) {
		t.Error("LRU entry b survived eviction")
	}
	if !c.Lookup("a", t0) || !c.Lookup("c", t0) || !c.Lookup("d", t0) {
		t.Error("wrong entry evicted")
	}
	if m := c.Metrics(); m.Evictions != 1 {
		t.Errorf("evictions = %d", m.Evictions)
	}
}

func TestCacheOversizeObjectNotCached(t *testing.T) {
	c := NewCache(100, time.Hour, 1)
	c.Insert("big", 1000, t0, false)
	if c.Len() != 0 {
		t.Error("oversize object cached")
	}
}

func TestCacheUpdateExistingKey(t *testing.T) {
	c := NewCache(1000, time.Hour, 1)
	c.Insert("a", 100, t0, false)
	c.Insert("a", 300, t0, false)
	if c.Len() != 1 {
		t.Errorf("len = %d", c.Len())
	}
	if c.Bytes() != 300 {
		t.Errorf("bytes = %d", c.Bytes())
	}
}

func TestCachePrefetchedAccounting(t *testing.T) {
	c := NewCache(1000, time.Hour, 1)
	c.Insert("p", 10, t0, true)
	c.Lookup("p", t0)
	c.Lookup("p", t0)
	m := c.Metrics()
	if m.PrefetchedHits != 2 {
		t.Errorf("prefetched hits = %d", m.PrefetchedHits)
	}
}

func TestCacheNegativeSizeClamped(t *testing.T) {
	c := NewCache(1000, time.Hour, 1)
	c.Insert("n", -5, t0, false)
	if c.Bytes() != 0 {
		t.Errorf("bytes = %d", c.Bytes())
	}
	if !c.Lookup("n", t0) {
		t.Error("zero-size entry should be cached")
	}
}

func TestCacheConstructorPanics(t *testing.T) {
	for _, f := range []func(){
		func() { NewCache(0, time.Minute, 1) },
		func() { NewCache(100, 0, 1) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Error("expected panic")
				}
			}()
			f()
		}()
	}
}

func TestCacheShardRounding(t *testing.T) {
	c := NewCache(1<<20, time.Minute, 3)
	if len(c.shards) != 4 {
		t.Errorf("shards = %d, want 4", len(c.shards))
	}
	c = NewCache(1<<20, time.Minute, 0)
	if len(c.shards) != 1 {
		t.Errorf("shards = %d, want 1", len(c.shards))
	}
}

func TestCacheHitRatio(t *testing.T) {
	var m CacheMetrics
	if m.HitRatio() != 0 {
		t.Error("empty ratio should be 0")
	}
	m = CacheMetrics{Hits: 3, Misses: 1}
	if m.HitRatio() != 0.75 {
		t.Errorf("ratio = %v", m.HitRatio())
	}
}

func TestCacheConcurrentAccess(t *testing.T) {
	c := NewCache(1<<20, time.Minute, 8)
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 2000; i++ {
				key := fmt.Sprintf("k%d", (w*31+i)%100)
				if i%3 == 0 {
					c.Insert(key, 100, t0, false)
				} else {
					c.Lookup(key, t0)
				}
			}
		}(w)
	}
	wg.Wait()
	m := c.Metrics()
	if m.Hits+m.Misses == 0 {
		t.Error("no lookups recorded")
	}
}

func TestCacheBytesTracksEvictions(t *testing.T) {
	c := NewCache(250, time.Hour, 1)
	for i := 0; i < 10; i++ {
		c.Insert(fmt.Sprintf("k%d", i), 100, t0, false)
	}
	if c.Bytes() > 250 {
		t.Errorf("bytes = %d exceeds capacity", c.Bytes())
	}
	if c.Len() != 2 {
		t.Errorf("len = %d, want 2", c.Len())
	}
}
