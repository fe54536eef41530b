package stats

import (
	"math"
	"testing"
	"testing/quick"
)

func TestSummaryBasic(t *testing.T) {
	var s Summary
	for _, x := range []float64{2, 4, 4, 4, 5, 5, 7, 9} {
		s.Add(x)
	}
	if s.N() != 8 {
		t.Errorf("N = %d", s.N())
	}
	if s.Mean() != 5 {
		t.Errorf("Mean = %v, want 5", s.Mean())
	}
	if s.Min() != 2 || s.Max() != 9 {
		t.Errorf("Min/Max = %v/%v", s.Min(), s.Max())
	}
	if s.Sum() != 40 {
		t.Errorf("Sum = %v", s.Sum())
	}
	// Population variance is 4; sample variance is 32/7.
	if got, want := s.Variance(), 32.0/7.0; math.Abs(got-want) > 1e-12 {
		t.Errorf("Variance = %v, want %v", got, want)
	}
}

func TestSummaryEmpty(t *testing.T) {
	var s Summary
	if s.N() != 0 || s.Mean() != 0 || s.Variance() != 0 || s.StdDev() != 0 {
		t.Error("empty summary should report zeros")
	}
}

func TestSummaryMergeMatchesSequential(t *testing.T) {
	err := quick.Check(func(seed uint64) bool {
		r := NewRNG(seed)
		var all, a, b Summary
		for i := 0; i < 100; i++ {
			x := r.NormFloat64() * 10
			all.Add(x)
			if i%2 == 0 {
				a.Add(x)
			} else {
				b.Add(x)
			}
		}
		a.Merge(b)
		return a.N() == all.N() &&
			math.Abs(a.Mean()-all.Mean()) < 1e-9 &&
			math.Abs(a.Variance()-all.Variance()) < 1e-9 &&
			a.Min() == all.Min() && a.Max() == all.Max()
	}, nil)
	if err != nil {
		t.Error(err)
	}
}

func TestSummaryMergeEmptyCases(t *testing.T) {
	var a, b Summary
	a.Add(3)
	a.Merge(b) // merge empty: no-op
	if a.N() != 1 || a.Mean() != 3 {
		t.Error("merging empty changed summary")
	}
	var c Summary
	c.Merge(a) // merge into empty: copy
	if c.N() != 1 || c.Mean() != 3 || c.Min() != 3 {
		t.Error("merging into empty did not copy")
	}
}

func TestQuantiles(t *testing.T) {
	data := []float64{5, 1, 4, 2, 3}
	qs := Quantiles(data, 0, 0.25, 0.5, 0.75, 1)
	want := []float64{1, 2, 3, 4, 5}
	for i := range want {
		if qs[i] != want[i] {
			t.Errorf("q[%d] = %v, want %v", i, qs[i], want[i])
		}
	}
	if Quantiles(nil, 0.5) != nil {
		t.Error("empty data should return nil")
	}
}

func TestCounterSharesAndOrder(t *testing.T) {
	var c Counter
	c.AddN("mobile", 55)
	c.AddN("embedded", 12)
	c.AddN("desktop", 9)
	c.AddN("unknown", 24)
	if c.Total() != 100 {
		t.Fatalf("Total = %d", c.Total())
	}
	if c.Share("mobile") != 0.55 {
		t.Errorf("Share(mobile) = %v", c.Share("mobile"))
	}
	keys := c.Keys()
	if keys[0] != "mobile" || keys[1] != "unknown" || keys[3] != "desktop" {
		t.Errorf("Keys order = %v", keys)
	}
	top := c.TopK(2)
	if len(top) != 2 || top[0].Key != "mobile" || top[0].Count != 55 {
		t.Errorf("TopK = %v", top)
	}
	if got := c.TopK(99); len(got) != 4 {
		t.Errorf("TopK over-length = %v", got)
	}
}

func TestCounterEmpty(t *testing.T) {
	var c Counter
	if c.Share("x") != 0 || c.Total() != 0 || c.Count("x") != 0 {
		t.Error("empty counter should report zeros")
	}
	if len(c.Keys()) != 0 {
		t.Error("empty counter should have no keys")
	}
}

func TestCounterMerge(t *testing.T) {
	var a, b Counter
	a.Add("x")
	b.Add("x")
	b.Add("y")
	a.Merge(&b)
	if a.Count("x") != 2 || a.Count("y") != 1 || a.Total() != 3 {
		t.Errorf("merge result: x=%d y=%d total=%d", a.Count("x"), a.Count("y"), a.Total())
	}
}

func TestCounterTieBreakByKey(t *testing.T) {
	var c Counter
	c.AddN("b", 5)
	c.AddN("a", 5)
	keys := c.Keys()
	if keys[0] != "a" || keys[1] != "b" {
		t.Errorf("tie not broken lexicographically: %v", keys)
	}
}
