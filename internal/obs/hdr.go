package obs

import (
	"fmt"
	"math"
	"math/bits"
	"sync/atomic"
	"time"
)

// HDRConfig parameterizes an HDRHistogram. The zero value is usable:
// it tracks int64 values from 1 to one hour of nanoseconds at two
// significant decimal digits.
type HDRConfig struct {
	// Lowest is the lowest discernible value (>= 1). Values below it
	// are still counted but share the bottom buckets. Default 1.
	Lowest int64
	// Highest is the highest trackable value; larger observations are
	// clamped to it (and tallied by Clamped). Default one hour in
	// nanoseconds.
	Highest int64
	// SigFigs is the number of significant decimal digits maintained
	// across the whole range (1..5). Default 2 — under 1% relative
	// error, HdrHistogram's usual operating point for latency.
	SigFigs int
	// Unit converts a recorded value into Prometheus base units at
	// exposition time (1e-9 for nanoseconds -> seconds). Default 1.
	Unit float64
}

func (c HDRConfig) withDefaults() HDRConfig {
	if c.Lowest <= 0 {
		c.Lowest = 1
	}
	if c.Highest <= 0 {
		c.Highest = int64(time.Hour)
	}
	if c.SigFigs <= 0 {
		c.SigFigs = 2
	}
	if c.Unit == 0 {
		c.Unit = 1
	}
	return c
}

// validate checks a defaulted configuration: SigFigs within 1..5,
// Highest at least 2*Lowest, and Lowest small enough that the first
// bucket's span fits in an int64.
func (c HDRConfig) validate() error {
	if c.SigFigs > 5 {
		return fmt.Errorf("obs: HDR SigFigs %d out of range 1..5", c.SigFigs)
	}
	if c.Lowest > math.MaxInt64/2 || c.Highest < 2*c.Lowest {
		return fmt.Errorf("obs: HDR Highest %d must be >= 2*Lowest (%d)", c.Highest, c.Lowest)
	}
	if bits.Len64(uint64(c.Lowest))-1+subBucketMagnitude(c.SigFigs) > 62 {
		return fmt.Errorf("obs: HDR Lowest %d too large for %d significant figures", c.Lowest, c.SigFigs)
	}
	return nil
}

// subBucketMagnitude is log2 of the linear sub-bucket count: enough
// sub-buckets that a single unit is resolvable up to 2*10^sigFigs, i.e.
// relative error < 10^-sigFigs.
func subBucketMagnitude(sigFigs int) int {
	return bits.Len64(uint64(2*int64(math.Pow10(sigFigs)) - 1))
}

// LatencyHDRConfig is the configuration the load harness uses for
// request latencies: nanosecond values discernible from 1µs up to ten
// minutes, exposed to Prometheus in seconds.
func LatencyHDRConfig() HDRConfig {
	return HDRConfig{Lowest: int64(time.Microsecond), Highest: int64(10 * time.Minute), SigFigs: 2, Unit: 1e-9}
}

// HDRHistogram is a log-linear bucketed histogram in the HdrHistogram
// style: the value range is covered by exponentially sized buckets,
// each split into 2^k linear sub-buckets, so relative error stays
// bounded by the configured significant figures across the whole range
// — the property fixed-bound histograms lose in their top buckets,
// exactly where tail latency lives.
//
// All methods are safe for concurrent use: observation is a single
// atomic add on the bucket plus atomic min/max/sum maintenance, so
// many load-generator workers can record into one histogram, and
// histograms with equal configurations merge losslessly (Merge,
// and across processes via Snapshot/FromHDRSnapshot).
type HDRHistogram struct {
	cfg HDRConfig

	unitMagnitude               int
	subBucketCount              int
	subBucketHalfCount          int
	subBucketHalfCountMagnitude int
	subBucketMask               int64
	bucketCount                 int

	counts  []atomic.Int64
	total   atomic.Int64
	sum     atomic.Int64
	min     atomic.Int64 // math.MaxInt64 until first Record
	max     atomic.Int64
	clamped atomic.Int64
}

// NewHDRHistogram builds a histogram for cfg (zero fields take the
// HDRConfig defaults). Panics on an invalid configuration (SigFigs
// outside 1..5, Highest below 2*Lowest, or a Lowest too large for
// SigFigs); FromHDRSnapshot returns the same check as an error.
func NewHDRHistogram(cfg HDRConfig) *HDRHistogram {
	cfg = cfg.withDefaults()
	if err := cfg.validate(); err != nil {
		panic(err.Error())
	}
	h := &HDRHistogram{cfg: cfg}

	h.unitMagnitude = 63 - bits.LeadingZeros64(uint64(cfg.Lowest))
	subBucketCountMagnitude := subBucketMagnitude(cfg.SigFigs)
	h.subBucketHalfCountMagnitude = subBucketCountMagnitude - 1
	h.subBucketCount = 1 << subBucketCountMagnitude
	h.subBucketHalfCount = h.subBucketCount / 2
	h.subBucketMask = int64(h.subBucketCount-1) << h.unitMagnitude

	// Exponential buckets until the range covers Highest.
	smallest := int64(h.subBucketCount) << h.unitMagnitude
	h.bucketCount = 1
	for smallest < cfg.Highest && smallest < math.MaxInt64/2 {
		smallest <<= 1
		h.bucketCount++
	}
	h.counts = make([]atomic.Int64, (h.bucketCount+1)*h.subBucketHalfCount)
	h.min.Store(math.MaxInt64)
	return h
}

// Config returns the (defaulted) configuration.
func (h *HDRHistogram) Config() HDRConfig { return h.cfg }

// Record adds one observation. Negative values count as zero; values
// above Highest are clamped into the top bucket and tallied by
// Clamped, so a histogram never errors on a pathological sample.
func (h *HDRHistogram) Record(v int64) {
	if v < 0 {
		v = 0
	}
	if v > h.cfg.Highest {
		v = h.cfg.Highest
		h.clamped.Add(1)
	}
	h.counts[h.countsIndex(v)].Add(1)
	h.total.Add(1)
	h.sum.Add(v)
	for {
		old := h.min.Load()
		if v >= old || h.min.CompareAndSwap(old, v) {
			break
		}
	}
	for {
		old := h.max.Load()
		if v <= old || h.max.CompareAndSwap(old, v) {
			break
		}
	}
}

// RecordDuration records d in nanoseconds.
func (h *HDRHistogram) RecordDuration(d time.Duration) { h.Record(d.Nanoseconds()) }

func (h *HDRHistogram) bucketIndex(v int64) int {
	// Smallest power of two containing the value, relative to the first
	// bucket's span: 0 for values inside the linear sub-bucket range.
	pow2 := bits.Len64(uint64(v | h.subBucketMask))
	return pow2 - h.unitMagnitude - (h.subBucketHalfCountMagnitude + 1)
}

func (h *HDRHistogram) countsIndex(v int64) int {
	bucketIdx := h.bucketIndex(v)
	subIdx := int(v >> uint(bucketIdx+h.unitMagnitude))
	return (bucketIdx+1)*h.subBucketHalfCount + (subIdx - h.subBucketHalfCount)
}

// valueFromIndex returns the lowest value that lands in counts[i].
func (h *HDRHistogram) valueFromIndex(i int) int64 {
	bucketIdx := i/h.subBucketHalfCount - 1
	subIdx := i%h.subBucketHalfCount + h.subBucketHalfCount
	if bucketIdx < 0 {
		subIdx -= h.subBucketHalfCount
		bucketIdx = 0
	}
	return int64(subIdx) << uint(bucketIdx+h.unitMagnitude)
}

// highestEquivalentFromIndex returns the highest value that lands in
// counts[i] — what quantile queries report, so they never understate.
func (h *HDRHistogram) highestEquivalentFromIndex(i int) int64 {
	bucketIdx := i/h.subBucketHalfCount - 1
	if bucketIdx < 0 {
		bucketIdx = 0
	}
	return h.valueFromIndex(i) + (int64(1) << uint(bucketIdx+h.unitMagnitude)) - 1
}

// Count returns the number of observations.
func (h *HDRHistogram) Count() int64 { return h.total.Load() }

// Sum returns the exact sum of recorded (post-clamp) values.
func (h *HDRHistogram) Sum() int64 { return h.sum.Load() }

// Clamped returns how many observations exceeded Highest.
func (h *HDRHistogram) Clamped() int64 { return h.clamped.Load() }

// Min returns the smallest recorded value (0 when empty).
func (h *HDRHistogram) Min() int64 {
	v := h.min.Load()
	if v == math.MaxInt64 {
		return 0
	}
	return v
}

// Max returns the largest recorded value (0 when empty).
func (h *HDRHistogram) Max() int64 { return h.max.Load() }

// Mean returns the exact arithmetic mean of recorded values.
func (h *HDRHistogram) Mean() float64 {
	n := h.total.Load()
	if n == 0 {
		return 0
	}
	return float64(h.sum.Load()) / float64(n)
}

// Quantile returns the value at quantile q in [0, 1]: the highest
// value equivalent to the bucket where the cumulative count crosses
// q*Count, capped at the recorded maximum. Returns 0 when empty.
func (h *HDRHistogram) Quantile(q float64) int64 {
	total := h.total.Load()
	if total == 0 {
		return 0
	}
	if q < 0 {
		q = 0
	} else if q > 1 {
		q = 1
	}
	target := int64(math.Ceil(q * float64(total)))
	if target < 1 {
		target = 1
	}
	var cum int64
	for i := range h.counts {
		cum += h.counts[i].Load()
		if cum >= target {
			v := h.highestEquivalentFromIndex(i)
			if mx := h.Max(); v > mx {
				return mx
			}
			return v
		}
	}
	return h.Max()
}

// QuantileDuration returns Quantile(q) as a time.Duration — for
// histograms recording nanoseconds.
func (h *HDRHistogram) QuantileDuration(q float64) time.Duration {
	return time.Duration(h.Quantile(q))
}

// Reset zeroes the histogram in place so window-rotation paths (e.g. a
// live sliding-window sketch) can reuse the allocation instead of
// replacing the histogram. Reset is safe to call concurrently with
// Record and Snapshot in the data-race sense — every field is atomic —
// but it is not a linearizable barrier: an observation racing the reset
// may land in either the old or the new window, and a snapshot taken
// mid-reset can mix the two. That is the accepted semantics for
// sliding-window telemetry, where window edges are approximate by
// construction; callers needing a clean cut must serialize externally.
func (h *HDRHistogram) Reset() {
	for i := range h.counts {
		h.counts[i].Store(0)
	}
	h.total.Store(0)
	h.sum.Store(0)
	h.clamped.Store(0)
	h.min.Store(math.MaxInt64)
	h.max.Store(0)
}

// HDRQuantiles are the quantiles reports and Prometheus exposition
// publish by default.
var HDRQuantiles = []float64{0.50, 0.75, 0.90, 0.95, 0.99, 0.999, 1.0}

// HDRPercentileRow is one line of a percentile table.
type HDRPercentileRow struct {
	Quantile float64 `json:"quantile"`
	Value    int64   `json:"value"`
}

// Percentiles evaluates the given quantiles (HDRQuantiles when none
// are passed) in one pass-friendly call.
func (h *HDRHistogram) Percentiles(qs ...float64) []HDRPercentileRow {
	if len(qs) == 0 {
		qs = HDRQuantiles
	}
	rows := make([]HDRPercentileRow, len(qs))
	for i, q := range qs {
		rows[i] = HDRPercentileRow{Quantile: q, Value: h.Quantile(q)}
	}
	return rows
}

// Merge adds other's observations into h. The configurations must
// match (Lowest, Highest, SigFigs); Unit is presentation-only and may
// differ.
func (h *HDRHistogram) Merge(other *HDRHistogram) error {
	if other == nil {
		return nil
	}
	if h.cfg.Lowest != other.cfg.Lowest || h.cfg.Highest != other.cfg.Highest || h.cfg.SigFigs != other.cfg.SigFigs {
		return fmt.Errorf("obs: HDR merge config mismatch: %+v vs %+v", h.cfg, other.cfg)
	}
	for i := range other.counts {
		if n := other.counts[i].Load(); n != 0 {
			h.counts[i].Add(n)
		}
	}
	h.total.Add(other.total.Load())
	h.sum.Add(other.sum.Load())
	h.clamped.Add(other.clamped.Load())
	if other.total.Load() > 0 {
		for {
			old := h.min.Load()
			v := other.min.Load()
			if v >= old || h.min.CompareAndSwap(old, v) {
				break
			}
		}
		for {
			old := h.max.Load()
			v := other.max.Load()
			if v <= old || h.max.CompareAndSwap(old, v) {
				break
			}
		}
	}
	return nil
}

// HDRSnapshot is a compact, JSON-serializable point-in-time copy of an
// HDRHistogram: configuration, summary stats, and only the non-zero
// buckets as [countsIndex, count] pairs. Snapshots from workers or
// separate processes rebuild (FromHDRSnapshot) and merge losslessly,
// which is how a sharded replay reports one fleet-wide tail.
type HDRSnapshot struct {
	Lowest  int64      `json:"lowest"`
	Highest int64      `json:"highest"`
	SigFigs int        `json:"sigfigs"`
	Count   int64      `json:"count"`
	Min     int64      `json:"min"`
	Max     int64      `json:"max"`
	Sum     int64      `json:"sum"`
	Clamped int64      `json:"clamped,omitempty"`
	Buckets [][2]int64 `json:"buckets,omitempty"`
}

// Snapshot captures the histogram. Concurrent recorders may land
// between bucket reads; the snapshot is consistent enough for
// reporting (Count is recomputed from the bucket reads so quantiles
// over the snapshot are self-consistent).
func (h *HDRHistogram) Snapshot() HDRSnapshot {
	s := HDRSnapshot{
		Lowest:  h.cfg.Lowest,
		Highest: h.cfg.Highest,
		SigFigs: h.cfg.SigFigs,
		Min:     h.Min(),
		Max:     h.Max(),
		Sum:     h.sum.Load(),
		Clamped: h.clamped.Load(),
	}
	for i := range h.counts {
		if n := h.counts[i].Load(); n != 0 {
			s.Buckets = append(s.Buckets, [2]int64{int64(i), n})
			s.Count += n
		}
	}
	return s
}

// FromHDRSnapshot rebuilds a live histogram from a snapshot, e.g. one
// decoded from a replay report or another process's /charz. Snapshots
// are foreign bytes, so a configuration NewHDRHistogram would panic on,
// or a bucket outside the histogram, is an error. A bucket listed twice
// counts twice, keeping Count equal to the bucket total. The Unit of
// the result defaults to 1.
func FromHDRSnapshot(s HDRSnapshot) (*HDRHistogram, error) {
	cfg := HDRConfig{Lowest: s.Lowest, Highest: s.Highest, SigFigs: s.SigFigs}.withDefaults()
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	h := NewHDRHistogram(cfg)
	for _, b := range s.Buckets {
		idx, n := b[0], b[1]
		if idx < 0 || idx >= int64(len(h.counts)) || n < 0 {
			return nil, fmt.Errorf("obs: HDR snapshot bucket [%d %d] out of range (len %d)", idx, n, len(h.counts))
		}
		h.counts[idx].Add(n)
		h.total.Add(n)
	}
	h.sum.Store(s.Sum)
	h.clamped.Store(s.Clamped)
	if s.Count > 0 {
		h.min.Store(s.Min)
		h.max.Store(s.Max)
	}
	return h, nil
}
