// Package resilience hardens the edge↔origin path: a deterministic
// fault-injection harness (FaultyOrigin) plus a fault-tolerance
// decorator (ResilientOrigin) composing per-attempt timeouts, capped
// exponential backoff with full jitter, and a per-origin three-state
// circuit breaker. The paper's JSON traffic is dominated by
// machine-to-machine flows polling origins at fixed intervals — exactly
// the traffic that turns an origin brownout into a cascade — so a
// production edge must retry transient faults, stop hammering a downed
// origin, and degrade gracefully (serve stale, shed low-priority load)
// rather than amplify the outage. internal/edge implements the
// degradation half (HTTPEdge.ServeStale, HTTPEdge.Degraded); this
// package supplies the failure model and the
// recovery policies, both reproducible under a seed so every failure
// mode is testable.
package resilience

import "errors"

// Origin supplies content for cache misses. It is structurally
// identical to edge.Origin, so any edge origin satisfies it and a
// FaultyOrigin or ResilientOrigin can be handed straight to an
// edge.HTTPEdge; the duplicate definition keeps this package free of an
// edge dependency (edge depends on nothing here either — the two meet
// only at wiring sites).
type Origin interface {
	// Fetch returns the response body, MIME type, and whether the
	// object is configured cacheable.
	Fetch(path string) (body []byte, mime string, cacheable bool, err error)
}

// temporaryError marks transient origin failures. Edges test for it
// (via errors.As on interface{ Temporary() bool }) to answer 503 and
// try the serve-stale path instead of treating the error as a missing
// object.
type temporaryError struct{ msg string }

func (e *temporaryError) Error() string { return e.msg }

// Temporary reports that the failure is transient: the object likely
// exists, the origin just could not produce it right now.
func (e *temporaryError) Temporary() bool { return true }

var (
	// ErrInjected is the failure FaultyOrigin injects.
	ErrInjected error = &temporaryError{"resilience: injected origin fault"}
	// ErrCircuitOpen is returned without touching the origin while the
	// breaker rejects traffic.
	ErrCircuitOpen error = &temporaryError{"resilience: circuit breaker open"}
	// ErrAttemptTimeout is returned when one fetch attempt exceeds
	// ResilientOrigin.AttemptTimeout.
	ErrAttemptTimeout error = &temporaryError{"resilience: origin attempt timed out"}
)

// IsTemporary reports whether err is a transient origin failure worth
// retrying (and worth a 503 rather than a 404 at the edge).
func IsTemporary(err error) bool {
	var t interface{ Temporary() bool }
	return errors.As(err, &t) && t.Temporary()
}
