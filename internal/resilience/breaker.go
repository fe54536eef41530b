package resilience

import (
	"sync"
	"time"
)

// State is a circuit breaker's position. The numeric order is by
// badness (closed < half-open < open) so the value can be exported
// directly as a gauge.
type State uint8

const (
	// StateClosed passes all traffic through.
	StateClosed State = iota
	// StateHalfOpen admits a single probe at a time to test recovery.
	StateHalfOpen
	// StateOpen rejects everything until OpenFor has elapsed.
	StateOpen
)

// String returns the state label.
func (s State) String() string {
	switch s {
	case StateOpen:
		return "open"
	case StateHalfOpen:
		return "half-open"
	default:
		return "closed"
	}
}

// Breaker is a three-state circuit breaker protecting one origin.
// Closed passes traffic and counts consecutive failures; at
// FailureThreshold it opens and rejects without touching the origin;
// after OpenFor it half-opens and admits one probe at a time, closing
// again after ProbeSuccesses consecutive probe successes and reopening
// on any probe failure. All methods are safe for concurrent use.
//
// The caller drives it: Allow before each attempt, then exactly one of
// Success or Failure for every admitted attempt (ResilientOrigin does
// this; only failures classified temporary should be reported as
// Failure — an origin serving 404s is an origin that is up).
type Breaker struct {
	// FailureThreshold is the consecutive-failure count that trips the
	// breaker (default 5).
	FailureThreshold int
	// OpenFor is how long an open breaker rejects before admitting a
	// probe (default 1s).
	OpenFor time.Duration
	// ProbeSuccesses is the consecutive half-open successes required to
	// close again (default 2).
	ProbeSuccesses int
	// Now supplies time (defaults to time.Now); tests override it.
	Now func() time.Time

	mu       sync.Mutex
	cur      State
	failures int  // consecutive failures while closed
	probes   int  // consecutive successes while half-open
	probing  bool // a half-open probe is in flight
	openedAt time.Time
	opens    int64 // transitions into StateOpen
}

func (b *Breaker) now() time.Time {
	if b.Now != nil {
		return b.Now()
	}
	return time.Now()
}

func (b *Breaker) threshold() int {
	if b.FailureThreshold > 0 {
		return b.FailureThreshold
	}
	return 5
}

func (b *Breaker) openFor() time.Duration {
	if b.OpenFor > 0 {
		return b.OpenFor
	}
	return time.Second
}

func (b *Breaker) probeTarget() int {
	if b.ProbeSuccesses > 0 {
		return b.ProbeSuccesses
	}
	return 2
}

// Allow reports whether an attempt may proceed now. An open breaker
// past its OpenFor deadline transitions to half-open and admits the
// caller as the probe; a half-open breaker admits only one probe at a
// time.
func (b *Breaker) Allow() bool {
	b.mu.Lock()
	defer b.mu.Unlock()
	switch b.cur {
	case StateClosed:
		return true
	case StateOpen:
		if b.now().Sub(b.openedAt) < b.openFor() {
			return false
		}
		b.cur = StateHalfOpen
		b.probes = 0
		b.probing = true
		return true
	default: // StateHalfOpen
		if b.probing {
			return false
		}
		b.probing = true
		return true
	}
}

// Success reports a completed attempt that worked.
func (b *Breaker) Success() {
	b.mu.Lock()
	defer b.mu.Unlock()
	switch b.cur {
	case StateClosed:
		b.failures = 0
	case StateHalfOpen:
		b.probing = false
		b.probes++
		if b.probes >= b.probeTarget() {
			b.cur = StateClosed
			b.failures = 0
		}
	}
}

// Failure reports a completed attempt that failed (transiently).
func (b *Breaker) Failure() {
	b.mu.Lock()
	defer b.mu.Unlock()
	switch b.cur {
	case StateClosed:
		b.failures++
		if b.failures >= b.threshold() {
			b.trip()
		}
	case StateHalfOpen:
		// The probe failed: the origin is still down.
		b.probing = false
		b.trip()
	}
}

// trip must be called with the mutex held.
func (b *Breaker) trip() {
	b.cur = StateOpen
	b.openedAt = b.now()
	b.opens++
	b.failures = 0
	b.probes = 0
}

// State returns the current state without transitioning it; an expired
// open interval still reads open until the next Allow.
func (b *Breaker) State() State {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.cur
}

// Opens returns the number of transitions into StateOpen.
func (b *Breaker) Opens() int64 {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.opens
}
