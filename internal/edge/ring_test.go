package edge

import (
	"fmt"
	"slices"
	"sync"
	"testing"
	"time"
)

// ringKeys is a deterministic key population for remap measurements.
func ringKeys(n int) []string {
	keys := make([]string, n)
	for i := range keys {
		keys[i] = fmt.Sprintf("http://api.example-%d.com/object/%d?v=%d", i%7, i, i%13)
	}
	return keys
}

func ringNames(n int) []string {
	names := make([]string, n)
	for i := range names {
		names[i] = fmt.Sprintf("edge-%02d", i)
	}
	return names
}

// TestRingSharedPrefixKeysBalance: keys that differ only in a short
// trailing suffix — one host serving /object/1, /object/2, ... — must
// still spread over every member. Raw FNV-64a positions such keys in
// one narrow arc (a trailing byte only reaches ~40 bits up the hash),
// which once routed an entire replay's keyspace to a single node; the
// splitmix64 finalizer in keyHash is the regression this test pins.
func TestRingSharedPrefixKeysBalance(t *testing.T) {
	const n = 3
	r := NewRing(0)
	r.Add(ringNames(n)...)

	count := map[string]int{}
	const keys = 600
	for i := 0; i < keys; i++ {
		count[r.Lookup(fmt.Sprintf("http://127.0.0.1:43210/object/%d", i))]++
	}
	if len(count) != n {
		t.Fatalf("same-prefix keys reached %d of %d members: %v", len(count), n, count)
	}
	for name, c := range count {
		frac := float64(c) / keys
		if frac < 0.5/n || frac > 2.0/n {
			t.Errorf("member %s owns %.3f of same-prefix keys, want ~%.3f", name, frac, 1.0/n)
		}
	}
}

// TestRingLeaveRemapsFraction: removing one of N members remaps only
// the keys the leaver owned — about 1/N of them — and no key moves
// between two surviving members.
func TestRingLeaveRemapsFraction(t *testing.T) {
	const n = 5
	r := NewRing(0)
	r.Add(ringNames(n)...)
	keys := ringKeys(20_000)

	before := make(map[string]string, len(keys))
	for _, k := range keys {
		before[k] = r.Lookup(k)
	}
	r.Remove("edge-02")

	remapped := 0
	for _, k := range keys {
		after := r.Lookup(k)
		if after == "edge-02" {
			t.Fatalf("key %q mapped to removed member", k)
		}
		if after != before[k] {
			if before[k] != "edge-02" {
				t.Fatalf("key %q moved between survivors: %s -> %s", k, before[k], after)
			}
			remapped++
		}
	}
	frac := float64(remapped) / float64(len(keys))
	want := 1.0 / n
	if frac < want*0.6 || frac > want*1.5 {
		t.Fatalf("remapped fraction %.3f, want ~%.3f (1/N)", frac, want)
	}
}

// TestRingJoinRemapsFraction: a joining member takes over ~1/N of the
// keys, stealing only onto itself.
func TestRingJoinRemapsFraction(t *testing.T) {
	const n = 5
	r := NewRing(0)
	r.Add(ringNames(n - 1)...)
	keys := ringKeys(20_000)

	before := make(map[string]string, len(keys))
	for _, k := range keys {
		before[k] = r.Lookup(k)
	}
	r.Add("edge-04")

	remapped := 0
	for _, k := range keys {
		after := r.Lookup(k)
		if after != before[k] {
			if after != "edge-04" {
				t.Fatalf("key %q moved to %s, not the joiner", k, after)
			}
			remapped++
		}
	}
	frac := float64(remapped) / float64(len(keys))
	want := 1.0 / n
	if frac < want*0.6 || frac > want*1.5 {
		t.Fatalf("remapped fraction %.3f, want ~%.3f (1/N)", frac, want)
	}
}

// TestRingDeterministic: the mapping is a pure function of the member
// set — independent rings, different add orders, and leave-then-rejoin
// histories all agree on every key.
func TestRingDeterministic(t *testing.T) {
	keys := ringKeys(5_000)

	a := NewRing(0)
	a.Add("edge-00", "edge-01", "edge-02", "edge-03")

	b := NewRing(0)
	b.Add("edge-03", "edge-01")
	b.Add("edge-00")
	b.Add("edge-02")

	c := NewRing(0)
	c.Add(ringNames(4)...)
	c.Remove("edge-01")
	c.Add("edge-01")

	for _, k := range keys {
		if a.Lookup(k) != b.Lookup(k) || a.Lookup(k) != c.Lookup(k) {
			t.Fatalf("rings disagree on %q: %s / %s / %s", k, a.Lookup(k), b.Lookup(k), c.Lookup(k))
		}
	}
}

// TestRingLookupN: replica lists are distinct, owner-first, and the
// second replica is exactly where the key lands once the owner leaves
// — the invariant failover and hedging rely on.
func TestRingLookupN(t *testing.T) {
	r := NewRing(0)
	r.Add(ringNames(4)...)
	keys := ringKeys(2_000)

	for _, k := range keys {
		reps := r.LookupN(k, 3)
		if len(reps) != 3 {
			t.Fatalf("LookupN(%q, 3) = %v, want 3 distinct members", k, reps)
		}
		seen := map[string]bool{}
		for _, m := range reps {
			if seen[m] {
				t.Fatalf("LookupN(%q) repeated member %s: %v", k, m, reps)
			}
			seen[m] = true
		}
		if reps[0] != r.Lookup(k) {
			t.Fatalf("LookupN(%q)[0] = %s, Lookup = %s", k, reps[0], r.Lookup(k))
		}
	}

	// Failover invariant: drop the owner, the key lands on replica #2.
	k := keys[42]
	reps := r.LookupN(k, 2)
	r.Remove(reps[0])
	if got := r.Lookup(k); got != reps[1] {
		t.Fatalf("after removing owner, key lands on %s, want second replica %s", got, reps[1])
	}
}

// TestRingLookupNBounds: n larger than the membership truncates, empty
// rings return nothing.
func TestRingLookupNBounds(t *testing.T) {
	r := NewRing(0)
	if got := r.LookupN("k", 2); got != nil {
		t.Fatalf("empty ring LookupN = %v, want nil", got)
	}
	if got := r.Lookup("k"); got != "" {
		t.Fatalf("empty ring Lookup = %q, want empty", got)
	}
	r.Add("edge-00", "edge-01")
	if got := r.LookupN("k", 5); len(got) != 2 {
		t.Fatalf("LookupN beyond membership = %v, want 2 members", got)
	}
}

// TestPoolRingRouting: the pool's routing is the ring's routing — the
// in-process simulation and the fleet front tier agree on placement.
func TestPoolRingRouting(t *testing.T) {
	p := NewPool(4, 1<<20, time.Minute)
	for _, k := range ringKeys(1_000) {
		if p.Route(k).Name != p.Ring().Lookup(k) {
			t.Fatalf("pool and ring disagree on %q", k)
		}
	}
}

// TestRingConcurrentLookupChurn holds Ring to its "safe for concurrent
// use" contract (run it under -race): readers call Lookup and LookupN
// while a writer adds and removes members. Three members stay for the
// whole run and three churn, so every answer must be non-empty, name
// only members of the run, and LookupN's must be distinct and as long
// as the stable set allows.
func TestRingConcurrentLookupChurn(t *testing.T) {
	names := ringNames(6)
	stable, churn := names[:3], names[3:]
	r := NewRing(0)
	r.Add(stable...)
	keys := ringKeys(64)

	var wg sync.WaitGroup
	done := make(chan struct{})
	errs := make(chan string, 4)
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; ; i++ {
				select {
				case <-done:
					return
				default:
				}
				key := keys[(g*17+i)%len(keys)]
				if got := r.Lookup(key); !slices.Contains(names, got) {
					errs <- fmt.Sprintf("Lookup(%q) = %q, not a member of the run", key, got)
					return
				}
				got := r.LookupN(key, len(stable))
				if len(got) != len(stable) {
					errs <- fmt.Sprintf("LookupN(%q, %d) = %q: want %d members", key, len(stable), got, len(stable))
					return
				}
				for j, name := range got {
					if !slices.Contains(names, name) || slices.Contains(got[:j], name) {
						errs <- fmt.Sprintf("LookupN(%q) = %q: unknown or repeated member %q", key, got, name)
						return
					}
				}
			}
		}()
	}
	for i := 0; i < 300; i++ {
		name := churn[i%len(churn)]
		if r.Has(name) {
			r.Remove(name)
		} else {
			r.Add(name)
		}
	}
	close(done)
	wg.Wait()
	close(errs)
	for e := range errs {
		t.Error(e)
	}
}
