// Package obs is the repo's zero-dependency observability substrate:
// atomic Counter and Gauge metrics and one distribution type
// (HDRHistogram), a labeled Registry with Prometheus text-format
// exposition, a lightweight per-stage tracer (Trace/Span), and an
// AdminMux serving /metrics, /debug/vars, and /debug/pprof. Every layer of the pipeline — the net/http edge, the
// synthetic workload generator, the scheduler simulation, and the
// experiment harness — reports through this package, so a single scrape
// of a running process answers the questions the paper's analyses ask
// offline: request rates by class, cache hit ratios, and queue-latency
// distributions.
package obs

import (
	"math"
	"sync/atomic"
)

// Counter is a monotonically increasing integer metric. The zero value
// is ready to use. All methods are safe for concurrent use.
type Counter struct {
	v atomic.Int64
}

// Inc adds one.
func (c *Counter) Inc() { c.v.Add(1) }

// Add increases the counter by n; negative n is ignored to preserve
// monotonicity.
func (c *Counter) Add(n int64) {
	if n > 0 {
		c.v.Add(n)
	}
}

// Value returns the current count.
func (c *Counter) Value() int64 { return c.v.Load() }

// Gauge is an instantaneous float64 metric that may go up or down. The
// zero value is ready to use. All methods are safe for concurrent use.
type Gauge struct {
	bits atomic.Uint64
}

// Set stores v.
func (g *Gauge) Set(v float64) { g.bits.Store(math.Float64bits(v)) }

// Add increases the gauge by delta (negative delta decreases it).
func (g *Gauge) Add(delta float64) {
	for {
		old := g.bits.Load()
		next := math.Float64bits(math.Float64frombits(old) + delta)
		if g.bits.CompareAndSwap(old, next) {
			return
		}
	}
}

// Inc adds one — the enter half of an in-flight gauge.
func (g *Gauge) Inc() { g.Add(1) }

// Dec subtracts one — the leave half of an in-flight gauge.
func (g *Gauge) Dec() { g.Add(-1) }

// Value returns the current value.
func (g *Gauge) Value() float64 { return math.Float64frombits(g.bits.Load()) }
