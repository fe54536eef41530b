package experiments

import (
	"fmt"
	"io"
	"net/http"
	"time"

	"repro/internal/edge"
	"repro/internal/resilience"
	"repro/internal/serve"
)

// ResilienceResult carries the robustness experiment: availability of
// the edge under a faulty origin and a scripted brownout, with and
// without the resilience stack (retries + breaker + serve-stale +
// shedding).
type ResilienceResult struct {
	// Requests is the per-stack request count.
	Requests int
	// BaselineOK and ResilientOK count 200 responses.
	BaselineOK, ResilientOK int
	// BaselineAvailability and ResilientAvailability are the 200
	// fractions.
	BaselineAvailability, ResilientAvailability float64
	// Retries, StaleServes, and Shed are the resilient stack's recovery
	// actions; BreakerOpens counts breaker trips.
	Retries, StaleServes, Shed, BreakerOpens int64
}

// resilienceStep serves one scripted request at simulated second i and
// reports whether it was answered 200. The mix echoes the liveedge
// workload: manifest and article GETs from a phone app (human class)
// and periodic telemetry POSTs from an IoT device (machine class, the
// shed target).
func resilienceStep(s *simEdge, i int) bool {
	method, path, ua := "GET", "", "NewsApp/3.1 (iPhone; iOS 12.2)"
	switch {
	case i%10 == 9:
		method, path, ua = "POST", "/ingest/metrics", "HomeCam/1.9 (IoT; ESP32)"
	case i%3 == 0:
		path = "/stories"
	default:
		path = fmt.Sprintf("/article/%d", 1000+i%7)
	}
	status, _, _ := s.serve(simEpoch.Add(time.Duration(i)*time.Second), method, "http://edge.local"+path, ua, 0)
	return status == http.StatusOK
}

// Resilience runs the brownout experiment: the same deterministic
// request schedule is served twice from identical faulty origins — once
// by a bare edge, once by the full resilience stack — and availability
// (fraction of 200s) is compared. The schedule covers 30 simulated
// minutes at 1 req/s with a 5-minute total outage in the middle; the
// steady-state fault rate and seed come from Config.FaultRate and
// Config.FaultSeed.
func (r *Runner) Resilience(w io.Writer) (ResilienceResult, error) {
	w = out(w)
	const (
		steps         = 1800 // 30 min at 1 req/s
		brownoutStart = 600 * time.Second
		brownoutEnd   = 900 * time.Second
	)
	rate := r.cfg.FaultRate
	seed := r.cfg.FaultSeed

	// Both stacks depart from the served node in the origin's latency
	// (none) and the cache TTL (30 s, so entries expire inside the
	// brownout); the resilient one also holds its breaker open for 5 s,
	// not 200 ms, at one request a second.
	stack := func(name string, bare bool) *simEdge {
		s := newSimEdge(serve.Parts{
			Origin:    &edge.WildcardOrigin{Inner: &edge.JSONOrigin{Articles: 40}},
			Cache:     edge.NewCache(32<<20, 30*time.Second, 4),
			Bare:      bare,
			FaultRate: rate,
			FaultSeed: seed,
			Registry:  r.stackRegistry(name),
		})
		s.Faulty.Brownouts = []resilience.Window{{
			From: simEpoch.Add(brownoutStart),
			To:   simEpoch.Add(brownoutEnd),
		}}
		return s
	}
	baseline := stack("baseline", true)
	resilient := stack("resilient", false)
	resilient.Breaker.OpenFor = 5 * time.Second
	res := ResilienceResult{Requests: steps}
	for i := 0; i < steps; i++ {
		if resilienceStep(baseline, i) {
			res.BaselineOK++
		}
		if resilienceStep(resilient, i) {
			res.ResilientOK++
		}
	}
	res.Retries = resilient.Origin.Obs.Retries.Value()
	res.StaleServes = resilient.Edge.Obs.StaleServes.Value()
	res.Shed = resilient.Edge.Obs.ShedMachine.Value()
	res.BreakerOpens = resilient.Breaker.Opens()
	res.BaselineAvailability = float64(res.BaselineOK) / float64(steps)
	res.ResilientAvailability = float64(res.ResilientOK) / float64(steps)

	fmt.Fprintln(w, "Availability under origin faults and a 5-minute brownout")
	fmt.Fprintf(w, "  %d requests per stack, steady-state fault rate %.1f%%, seed %d\n",
		steps, rate*100, seed)
	fmt.Fprintf(w, "  baseline:  %5d/%d 200s  availability %s\n", res.BaselineOK, steps, pct(res.BaselineAvailability))
	fmt.Fprintf(w, "  resilient: %5d/%d 200s  availability %s\n", res.ResilientOK, steps, pct(res.ResilientAvailability))
	fmt.Fprintf(w, "  recovery actions: %d retries, %d stale serves, %d shed, %d breaker opens\n",
		res.Retries, res.StaleServes, res.Shed, res.BreakerOpens)
	compareRow(w, "availability gain from resilience", "qualitative",
		pct(res.ResilientAvailability-res.BaselineAvailability))
	return res, nil
}
