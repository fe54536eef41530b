package stats

import (
	"fmt"
	"math"
	"sort"
)

// Summary accumulates count, sum, min, max, mean, and variance of a stream
// of observations in O(1) space using Welford's online algorithm. The zero
// value is an empty summary ready for use. Summary is not safe for
// concurrent use.
type Summary struct {
	n        int64
	mean, m2 float64
	min, max float64
	sum      float64
}

// Add records one observation.
func (s *Summary) Add(x float64) {
	s.n++
	if s.n == 1 {
		s.min, s.max = x, x
	} else {
		if x < s.min {
			s.min = x
		}
		if x > s.max {
			s.max = x
		}
	}
	s.sum += x
	d := x - s.mean
	s.mean += d / float64(s.n)
	s.m2 += d * (x - s.mean)
}

// Merge folds other into s, as if all of other's observations had been
// added to s (Chan et al. parallel variance combination).
func (s *Summary) Merge(other Summary) {
	if other.n == 0 {
		return
	}
	if s.n == 0 {
		*s = other
		return
	}
	n1, n2 := float64(s.n), float64(other.n)
	d := other.mean - s.mean
	tot := n1 + n2
	s.m2 += other.m2 + d*d*n1*n2/tot
	s.mean += d * n2 / tot
	s.sum += other.sum
	s.n += other.n
	if other.min < s.min {
		s.min = other.min
	}
	if other.max > s.max {
		s.max = other.max
	}
}

// N returns the number of observations.
func (s *Summary) N() int64 { return s.n }

// Sum returns the sum of observations.
func (s *Summary) Sum() float64 { return s.sum }

// Mean returns the arithmetic mean, or 0 if empty.
func (s *Summary) Mean() float64 { return s.mean }

// Min returns the smallest observation, or 0 if empty.
func (s *Summary) Min() float64 { return s.min }

// Max returns the largest observation, or 0 if empty.
func (s *Summary) Max() float64 { return s.max }

// Variance returns the unbiased sample variance, or 0 for n < 2.
func (s *Summary) Variance() float64 {
	if s.n < 2 {
		return 0
	}
	return s.m2 / float64(s.n-1)
}

// StdDev returns the sample standard deviation.
func (s *Summary) StdDev() float64 { return math.Sqrt(s.Variance()) }

// String formats the summary for human-readable reports.
func (s *Summary) String() string {
	return fmt.Sprintf("n=%d mean=%.3g sd=%.3g min=%.3g max=%.3g",
		s.n, s.Mean(), s.StdDev(), s.min, s.max)
}

// Quantiles computes exact quantiles of data at each probability in probs
// (values in [0,1]) using linear interpolation between order statistics.
// data is sorted in place. It returns nil if data is empty.
func Quantiles(data []float64, probs ...float64) []float64 {
	if len(data) == 0 {
		return nil
	}
	sort.Float64s(data)
	out := make([]float64, len(probs))
	for i, p := range probs {
		out[i] = quantileSorted(data, p)
	}
	return out
}

func quantileSorted(sorted []float64, p float64) float64 {
	n := len(sorted)
	if n == 0 {
		return 0
	}
	if p <= 0 {
		return sorted[0]
	}
	if p >= 1 {
		return sorted[n-1]
	}
	pos := p * float64(n-1)
	lo := int(math.Floor(pos))
	hi := lo + 1
	if hi >= n {
		return sorted[n-1]
	}
	frac := pos - float64(lo)
	return sorted[lo]*(1-frac) + sorted[hi]*frac
}

// Counter tallies string-keyed occurrences and reports shares. It is the
// workhorse behind every categorical breakdown in the characterization
// (device types, methods, categories, ...). The zero value is ready to
// use. Counter is not safe for concurrent use.
type Counter struct {
	counts map[string]int64
	total  int64
}

// Add increments key by one.
func (c *Counter) Add(key string) { c.AddN(key, 1) }

// AddN increments key by n.
func (c *Counter) AddN(key string, n int64) {
	if c.counts == nil {
		c.counts = make(map[string]int64)
	}
	c.counts[key] += n
	c.total += n
}

// Merge folds other into c.
func (c *Counter) Merge(other *Counter) {
	for k, v := range other.counts {
		c.AddN(k, v)
	}
}

// Count returns the tally for key.
func (c *Counter) Count(key string) int64 { return c.counts[key] }

// Total returns the sum of all tallies.
func (c *Counter) Total() int64 { return c.total }

// Share returns key's fraction of the total, or 0 if the counter is empty.
func (c *Counter) Share(key string) float64 {
	if c.total == 0 {
		return 0
	}
	return float64(c.counts[key]) / float64(c.total)
}

// Keys returns all keys sorted by descending count, ties broken by key.
func (c *Counter) Keys() []string {
	keys := make([]string, 0, len(c.counts))
	for k := range c.counts {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool {
		ci, cj := c.counts[keys[i]], c.counts[keys[j]]
		if ci != cj {
			return ci > cj
		}
		return keys[i] < keys[j]
	})
	return keys
}

// TopK returns up to k (key, count) pairs by descending count.
func (c *Counter) TopK(k int) []KV {
	keys := c.Keys()
	if k > len(keys) {
		k = len(keys)
	}
	out := make([]KV, 0, k)
	for _, key := range keys[:k] {
		out = append(out, KV{Key: key, Count: c.counts[key]})
	}
	return out
}

// KV is a key with its tally, as returned by Counter.TopK.
type KV struct {
	Key   string
	Count int64
}
