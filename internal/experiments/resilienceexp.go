package experiments

import (
	"fmt"
	"io"
	"net/http/httptest"
	"time"

	"repro/internal/edge"
	"repro/internal/obs"
	"repro/internal/resilience"
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

// resilienceStack is one edge + origin under test, driven on a
// deterministic simulated clock shared by the edge cache, the fault
// injector, and the breaker, so brownout windows and TTL expiries line
// up identically across runs and across the two stacks.
type resilienceStack struct {
	edge    *edge.HTTPEdge
	faulty  *resilience.FaultyOrigin
	breaker *resilience.Breaker
	inst    *resilience.Instrumentation
	clock   time.Time
	ok      int
}

// resilienceEpoch anchors the simulated clock; any fixed instant works.
var resilienceEpoch = time.Unix(1_700_000_000, 0).UTC()

func newResilienceStack(resilient bool, faultRate float64, seed uint64, brownout resilience.Window, reg *obs.Registry) *resilienceStack {
	s := &resilienceStack{clock: resilienceEpoch}
	now := func() time.Time { return s.clock }
	noSleep := func(time.Duration) {}
	s.faulty = &resilience.FaultyOrigin{
		Inner:     &edge.JSONOrigin{Articles: 30},
		Seed:      seed,
		ErrorRate: faultRate,
		Brownouts: []resilience.Window{brownout},
		Now:       now,
		Sleep:     noSleep,
	}
	s.edge = &edge.HTTPEdge{
		Cache:  edge.NewCache(8<<20, 30*time.Second, 4),
		Origin: s.faulty,
		Now:    now,
	}
	// Each stack always reports into a registry — the runner's (under a
	// stack=... label) when instrumented, a private one otherwise — so
	// the result can read recovery counters either way.
	child := obs.NewRegistry()
	if reg != nil {
		name := "baseline"
		if resilient {
			name = "resilient"
		}
		child = reg.With("stack", name)
	}
	s.edge.Obs = edge.NewInstrumentation(child)
	if !resilient {
		return s
	}
	s.breaker = &resilience.Breaker{
		FailureThreshold: 5,
		OpenFor:          5 * time.Second,
		ProbeSuccesses:   2,
		Now:              now,
	}
	ro := &resilience.ResilientOrigin{
		Inner:   s.faulty,
		Retry:   resilience.Backoff{Base: 10 * time.Millisecond, Cap: 100 * time.Millisecond, Attempts: 3},
		Breaker: s.breaker,
		Seed:    seed + 1,
		Sleep:   noSleep,
	}
	s.edge.Origin = ro
	s.edge.ServeStale = true
	s.edge.Degraded = ro.Degraded
	ro.Obs = resilience.NewInstrumentation(child)
	resilience.RegisterBreaker(child, s.breaker)
	s.inst = ro.Obs
	return s
}

// step serves one scripted request at simulated second i and advances
// the clock. The mix echoes the liveedge workload: manifest and article
// GETs from a phone app (human class) and periodic telemetry POSTs from
// an IoT device (machine class, the shed target).
func (s *resilienceStack) step(i int) {
	s.clock = resilienceEpoch.Add(time.Duration(i) * time.Second)
	method, path, ua := "GET", "", "NewsApp/3.1 (iPhone; iOS 12.2)"
	switch {
	case i%10 == 9:
		method, path, ua = "POST", "/ingest/metrics", "HomeCam/1.9 (IoT; ESP32)"
	case i%3 == 0:
		path = "/stories"
	default:
		path = fmt.Sprintf("/article/%d", 1000+i%7)
	}
	req := httptest.NewRequest(method, "http://edge.local"+path, nil)
	req.Header.Set("User-Agent", ua)
	rec := httptest.NewRecorder()
	s.edge.ServeHTTP(rec, req)
	if rec.Code == 200 {
		s.ok++
	}
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
	brownout := resilience.Window{
		From: resilienceEpoch.Add(brownoutStart),
		To:   resilienceEpoch.Add(brownoutEnd),
	}
	rate := r.cfg.FaultRate
	seed := r.cfg.FaultSeed

	baseline := newResilienceStack(false, rate, seed, brownout, r.obsReg)
	resilient := newResilienceStack(true, rate, seed, brownout, r.obsReg)
	for i := 0; i < steps; i++ {
		baseline.step(i)
		resilient.step(i)
	}

	res := ResilienceResult{
		Requests:     steps,
		BaselineOK:   baseline.ok,
		ResilientOK:  resilient.ok,
		Retries:      resilient.inst.Retries.Value(),
		StaleServes:  resilient.edge.Obs.StaleServes.Value(),
		Shed:         resilient.edge.Obs.ShedMachine.Value(),
		BreakerOpens: resilient.breaker.Opens(),
	}
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
