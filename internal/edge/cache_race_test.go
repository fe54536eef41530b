package edge

import (
	"sync"
	"testing"
	"time"
)

// TestCacheNegativeChurnRace hammers probes, inserts and demand reads from
// many goroutines over a small shared key set with TTLs expiring
// mid-run — the access pattern of a negative cache absorbing a
// hammered-miss storm while the serving path reads the same shards.
// It asserts nothing beyond internal invariants; its value is running
// under `make race`.
func TestCacheNegativeChurnRace(t *testing.T) {
	c := NewCache(1<<14, 10*time.Millisecond, 4)
	keys := []string{"neg:a", "neg:b", "neg:c", "neg:d", "neg:e", "neg:f"}
	base := time.Now()
	const workers = 8
	const iters = 3000

	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < iters; i++ {
				// Advance time past the TTL periodically so expiry,
				// stale retention, and eviction all race with inserts.
				now := base.Add(time.Duration(i%40) * time.Millisecond)
				k := keys[(i+w)%len(keys)]
				switch (i + w) % 3 {
				case 0:
					c.Insert(k, int64(100+i%500), now, false)
				case 1:
					c.Read(k, now, Probe)
				default:
					c.Lookup(k, now)
				}
			}
		}(w)
	}
	wg.Wait()

	m := c.Metrics()
	if m.Hits+m.Misses == 0 {
		t.Fatal("no lookups recorded")
	}
	if c.Bytes() < 0 {
		t.Fatalf("negative byte accounting: %d", c.Bytes())
	}
}

// keyed is a payload that says which key and which store it came from.
type keyed struct {
	key string
	seq int
}

// TestCachePayloadConcurrent is the model test's concurrent variant: one
// writer per key stores payloads numbered in order while readers read
// every key under every Use and inserts churn the shards. A read must
// never hand back another key's payload nor an older one than the same
// reader already saw, and the counters must add up to the reads made.
func TestCachePayloadConcurrent(t *testing.T) {
	const capBytes = 1 << 12
	c := NewCache(capBytes, 10*time.Millisecond, 4)
	keys := []string{"a", "b", "c", "d", "e", "f", "g", "h"}
	base := time.Now()
	const iters = 2000

	var wg sync.WaitGroup
	for _, k := range keys {
		wg.Add(1)
		go func(k string) {
			defer wg.Done()
			for i := 0; i < iters; i++ {
				now := base.Add(time.Duration(i%40) * time.Millisecond)
				c.Store(k, int64(100+i%700), now, keyed{k, i})
				if i%7 == 0 {
					c.Insert("filler:"+k, 900, now, true)
				}
			}
		}(k)
	}
	const readers = 4
	for r := 0; r < readers; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			seen := map[string]int{}
			for i := 0; i < iters; i++ {
				now := base.Add(time.Duration(i%40) * time.Millisecond)
				k := keys[(i+r)%len(keys)]
				got := c.Read(k, now, Use(i%2)) // Probe, Demand
				if got.State == Absent {
					continue
				}
				p, ok := got.Payload.(keyed)
				if !ok || p.key != k || p.seq < seen[k] {
					t.Errorf("read %q: payload %+v after seq %d", k, got.Payload, seen[k])
					return
				}
				seen[k] = p.seq
			}
		}(r)
	}
	wg.Wait()

	m := c.Metrics()
	if got := m.Hits + m.Misses; got != readers*iters/2 {
		t.Errorf("hits+misses = %d, want %d demand reads", got, readers*iters/2)
	}
	if b := c.Bytes(); b < 0 || b > capBytes {
		t.Errorf("bytes = %d, capacity %d", b, capBytes)
	}
}
