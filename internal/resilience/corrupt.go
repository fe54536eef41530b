package resilience

import (
	"io"

	"repro/internal/stats"
)

// CorruptingReader wraps an io.Reader and injects reproducible stream
// corruption: single-bit flips, garbage-run insertion, and truncation
// (including mid-record EOF). Every decision comes from a deterministic
// RNG seeded by Seed, so a given configuration corrupts a given stream
// identically run after run — the chaos counterpart of FaultyOrigin for
// the log-to-analysis path. The ingest tests drive corrupted log
// streams through every tolerant entry point of package ingest with it
// and assert quarantine accounting.
//
// CorruptingReader is not safe for concurrent use.
type CorruptingReader struct {
	// R is the wrapped reader; required.
	R io.Reader
	// Seed drives every corruption decision.
	Seed uint64
	// BitFlipRate is the per-byte probability of XOR-ing one random bit.
	BitFlipRate float64
	// GarbageRate is the per-byte probability of inserting a garbage run
	// of 1..GarbageLen random bytes before the byte.
	GarbageRate float64
	// GarbageLen caps one inserted garbage run (default 16).
	GarbageLen int
	// TruncateAt, when > 0, ends the stream after this many output
	// bytes — cutting whatever record is in flight mid-frame.
	TruncateAt int64
	// SkipBytes protects the first N stream bytes from all corruption
	// (e.g. a container's file header or a header line), so tests can aim faults
	// at record bodies rather than the stream preamble.
	SkipBytes int64

	rng     *stats.RNG
	out     int64 // bytes emitted
	flips   int64
	inserts int64
	pending []byte // garbage queued for the next Read
}

// Faults returns how many corruption events (bit flips + garbage runs)
// were injected so far.
func (c *CorruptingReader) Faults() int64 { return c.flips + c.inserts }

// Read implements io.Reader.
func (c *CorruptingReader) Read(p []byte) (int, error) {
	if c.rng == nil {
		c.rng = stats.NewRNG(c.Seed)
		if c.GarbageLen <= 0 {
			c.GarbageLen = 16
		}
	}
	if c.TruncateAt > 0 && c.out >= c.TruncateAt {
		return 0, io.EOF
	}
	n := 0
	// Drain garbage queued from a previous full buffer.
	for n < len(p) && len(c.pending) > 0 {
		p[n] = c.pending[0]
		c.pending = c.pending[1:]
		n++
		c.out++
	}
	if n == len(p) {
		return c.truncate(p, n)
	}
	raw := make([]byte, len(p)-n)
	rn, err := c.R.Read(raw)
	for _, b := range raw[:rn] {
		if c.out >= c.SkipBytes {
			if c.GarbageRate > 0 && c.rng.Bool(c.GarbageRate) {
				c.inserts++
				run := 1 + c.rng.Intn(c.GarbageLen)
				for i := 0; i < run; i++ {
					g := byte(c.rng.Uint64())
					if n < len(p) {
						p[n] = g
						n++
						c.out++
					} else {
						c.pending = append(c.pending, g)
					}
				}
			}
			if c.BitFlipRate > 0 && c.rng.Bool(c.BitFlipRate) {
				c.flips++
				b ^= 1 << uint(c.rng.Intn(8))
			}
		}
		if n < len(p) {
			p[n] = b
			n++
			c.out++
		} else {
			c.pending = append(c.pending, b)
		}
	}
	if len(c.pending) > 0 && err == io.EOF {
		err = nil // pending bytes still to deliver
	}
	if n > 0 && err == io.EOF {
		err = nil
	}
	return c.truncateErr(p, n, err)
}

// truncate applies TruncateAt to an n-byte result.
func (c *CorruptingReader) truncate(p []byte, n int) (int, error) {
	return c.truncateErr(p, n, nil)
}

func (c *CorruptingReader) truncateErr(p []byte, n int, err error) (int, error) {
	if c.TruncateAt > 0 && c.out > c.TruncateAt {
		over := c.out - c.TruncateAt
		if int64(n) >= over {
			n -= int(over)
			c.out = c.TruncateAt
		}
		return n, io.EOF
	}
	return n, err
}
