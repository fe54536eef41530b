package resilience

import (
	"fmt"
	"sync"
	"time"

	"repro/internal/stats"
)

// ResilientOrigin decorates an Origin with the recovery policies a
// production edge runs against customer origins: a per-attempt timeout,
// capped exponential backoff with full jitter between retries, and a
// circuit breaker that stops hammering an origin that is clearly down.
// Only transient failures (IsTemporary) are retried and counted against
// the breaker; a hard error like an unknown route returns immediately —
// an origin serving 404s is an origin that is up. Safe for concurrent
// use.
type ResilientOrigin struct {
	// Inner is the protected origin; required.
	Inner Origin
	// Retry configures attempts and backoff (zero value: 3 attempts,
	// 10ms base, 1s cap).
	Retry Backoff
	// Breaker, if non-nil, gates every attempt. A rejection returns
	// ErrCircuitOpen without sleeping or retrying: retrying against an
	// open breaker is exactly the hammering it exists to prevent.
	Breaker *Breaker
	// AttemptTimeout bounds each attempt; 0 disables it. A timed-out
	// attempt's goroutine runs to completion in the background (the
	// Origin interface has no cancellation), so the wrapped origin must
	// tolerate abandoned calls.
	AttemptTimeout time.Duration
	// Seed drives the backoff jitter.
	Seed uint64
	// Sleep applies backoff delays (defaults to time.Sleep); tests and
	// the experiment use a no-op.
	Sleep func(time.Duration)
	// Obs, if non-nil, receives retry/attempt/latency metrics; wire it
	// with NewInstrumentation.
	Obs *Instrumentation

	mu  sync.Mutex
	rng *stats.RNG
}

// Healthy reports whether the breaker currently passes traffic; edges
// wire it to HTTPEdge.Degraded (negated) to shed low-priority load
// while the origin is down. Always true without a breaker.
func (ro *ResilientOrigin) Healthy() bool {
	return ro.Breaker == nil || ro.Breaker.State() != StateOpen
}

// Degraded is the complement of Healthy, shaped for HTTPEdge.Degraded.
func (ro *ResilientOrigin) Degraded() bool { return !ro.Healthy() }

func (ro *ResilientOrigin) delay(retry int) time.Duration {
	ro.mu.Lock()
	defer ro.mu.Unlock()
	if ro.rng == nil {
		ro.rng = stats.NewRNG(ro.Seed)
	}
	return ro.Retry.Delay(retry, ro.rng)
}

func (ro *ResilientOrigin) sleep(d time.Duration) {
	if d <= 0 {
		return
	}
	if ro.Sleep != nil {
		ro.Sleep(d)
	} else {
		time.Sleep(d)
	}
}

// Fetch implements Origin.
func (ro *ResilientOrigin) Fetch(path string) ([]byte, string, bool, error) {
	attempts := ro.Retry.attempts()
	var lastErr error
	for n := 0; n < attempts; n++ {
		if ro.Breaker != nil && !ro.Breaker.Allow() {
			if ro.Obs != nil {
				ro.Obs.BreakerRejects.Inc()
			}
			return nil, "", false, ErrCircuitOpen
		}
		if n > 0 {
			if ro.Obs != nil {
				ro.Obs.Retries.Inc()
			}
			ro.sleep(ro.delay(n))
		}
		start := time.Now()
		body, mime, cacheable, err := ro.attempt(path)
		temporary := err != nil && IsTemporary(err)
		if ro.Obs != nil {
			ro.Obs.AttemptSeconds.RecordDuration(time.Since(start))
			ro.Obs.attemptResult(err).Inc()
		}
		if ro.Breaker != nil {
			// Hard errors count as successes: the origin answered.
			if temporary {
				ro.Breaker.Failure()
			} else {
				ro.Breaker.Success()
			}
		}
		if err == nil {
			return body, mime, cacheable, nil
		}
		if !temporary {
			return nil, "", false, err
		}
		lastErr = err
	}
	return nil, "", false, fmt.Errorf("resilience: %d attempts failed: %w", attempts, lastErr)
}

// attempt runs one fetch under the attempt timeout.
func (ro *ResilientOrigin) attempt(path string) ([]byte, string, bool, error) {
	if ro.AttemptTimeout <= 0 {
		return ro.Inner.Fetch(path)
	}
	type result struct {
		body      []byte
		mime      string
		cacheable bool
		err       error
	}
	ch := make(chan result, 1)
	go func() {
		b, m, c, err := ro.Inner.Fetch(path)
		ch <- result{b, m, c, err}
	}()
	t := time.NewTimer(ro.AttemptTimeout)
	defer t.Stop()
	select {
	case r := <-ch:
		return r.body, r.mime, r.cacheable, r.err
	case <-t.C:
		return nil, "", false, fmt.Errorf("%q after %v: %w", path, ro.AttemptTimeout, ErrAttemptTimeout)
	}
}
