package resilience

import (
	"errors"

	"repro/internal/obs"
)

// Instrumentation holds the pre-resolved metrics a ResilientOrigin
// reports into, mirroring edge.Instrumentation: the retry hot path pays
// no registry lookups. Create one with NewInstrumentation.
type Instrumentation struct {
	// Retries counts retry attempts beyond the first
	// (resilience_retries_total).
	Retries *obs.Counter
	// AttemptOK/AttemptError/AttemptTimeout count attempt outcomes into
	// resilience_attempts_total{result=...}.
	AttemptOK      *obs.Counter
	AttemptError   *obs.Counter
	AttemptTimeout *obs.Counter
	// BreakerRejects counts fetches refused while the breaker was open
	// (resilience_breaker_rejects_total).
	BreakerRejects *obs.Counter
	// AttemptSeconds is the per-attempt origin latency distribution
	// (resilience_attempt_seconds).
	AttemptSeconds *obs.HDRHistogram
}

// NewInstrumentation registers the resilience metrics in reg and
// returns them. Calling it twice with the same registry returns the
// same underlying metrics.
func NewInstrumentation(reg *obs.Registry) *Instrumentation {
	reg.Help("resilience_retries_total", "Origin fetch retries beyond the first attempt.")
	reg.Help("resilience_attempts_total", "Origin fetch attempts by outcome.")
	reg.Help("resilience_breaker_rejects_total", "Fetches rejected by an open circuit breaker.")
	reg.Help("resilience_attempt_seconds", "Per-attempt origin fetch latency.")
	return &Instrumentation{
		Retries:        reg.Counter("resilience_retries_total"),
		AttemptOK:      reg.Counter("resilience_attempts_total", "result", "ok"),
		AttemptError:   reg.Counter("resilience_attempts_total", "result", "error"),
		AttemptTimeout: reg.Counter("resilience_attempts_total", "result", "timeout"),
		BreakerRejects: reg.Counter("resilience_breaker_rejects_total"),
		AttemptSeconds: reg.HDR("resilience_attempt_seconds", obs.LatencyHDRConfig()),
	}
}

// attemptResult returns the counter for one attempt outcome.
func (in *Instrumentation) attemptResult(err error) *obs.Counter {
	switch {
	case err == nil:
		return in.AttemptOK
	case errors.Is(err, ErrAttemptTimeout):
		return in.AttemptTimeout
	default:
		return in.AttemptError
	}
}

// RegisterBreaker registers pull-style metrics for b in reg under the
// optional fixed label pairs: resilience_breaker_state (the State
// value: 0 closed, 1 half-open, 2 open) and
// resilience_breaker_opens_total. Values are read at scrape time, so
// state transitions cost nothing extra. Panics if the same name and
// label set is already registered (register each breaker once).
func RegisterBreaker(reg *obs.Registry, b *Breaker, labels ...string) {
	reg.Help("resilience_breaker_state", "Circuit breaker state: 0 closed, 1 half-open, 2 open.")
	reg.Help("resilience_breaker_opens_total", "Circuit breaker transitions into open.")
	reg.GaugeFunc("resilience_breaker_state", func() float64 { return float64(b.State()) }, labels...)
	reg.CounterFunc("resilience_breaker_opens_total", func() int64 { return b.Opens() }, labels...)
}
