package fleet

import (
	"sync"
	"time"

	"repro/internal/fleet/chaos"
)

// CounterSnapshot is the front's counter state at one timeline instant.
type CounterSnapshot struct {
	AtMs      int64  `json:"at_ms"`
	Verb      string `json:"verb"`
	Node      string `json:"node"`
	Hits      int64  `json:"hits"`
	Misses    int64  `json:"misses"`
	Failovers int64  `json:"failovers"`
	Exhausted int64  `json:"exhausted"`
	Live      int    `json:"live"`
}

// HitWindow is the hit ratio the front observed between two snapshots.
type HitWindow struct {
	Hits   int64   `json:"hits"`
	Misses int64   `json:"misses"`
	Ratio  float64 `json:"ratio"`
}

func windowBetween(from, to CounterSnapshot) *HitWindow {
	w := &HitWindow{Hits: to.Hits - from.Hits, Misses: to.Misses - from.Misses}
	if n := w.Hits + w.Misses; n > 0 {
		w.Ratio = float64(w.Hits) / float64(n)
	}
	return w
}

// Recovery is the gate verdict: did the settled hit ratio come back to
// within Tolerance of the pre-fault ratio?
type Recovery struct {
	PreRatio     float64 `json:"pre_ratio"`
	SettledRatio float64 `json:"settled_ratio"`
	Tolerance    float64 `json:"tolerance"`
	Pass         bool    `json:"pass"`
}

// RecoveryReport is what a Recorder closes its books into: every event's
// snapshot, the two hit-ratio windows (nil when the timeline has no
// disruption, or no repair), the final totals, and the verdict when a
// tolerance was asked for and both windows exist.
type RecoveryReport struct {
	Snapshots []CounterSnapshot `json:"snapshots,omitempty"`
	PreFault  *HitWindow        `json:"pre_fault,omitempty"`
	Settled   *HitWindow        `json:"settled,omitempty"`
	Totals    CounterSnapshot   `json:"totals"`
	Recovery  *Recovery         `json:"recovery,omitempty"`
}

// Recorder snapshots an instrumented fleet's counters at each chaos
// event; wire Observe as chaos.Controller.OnEvent. Pre-fault is the
// span from the recorder's start to the first disruptive event
// (kill, pause, partition, dead); settled, from the last repair
// (restart, heal, mark) to the end of the run.
type Recorder struct {
	f     *Fleet
	start time.Time

	mu    sync.Mutex
	snaps []CounterSnapshot
}

// NewRecorder starts a recorder over f, which must already be
// instrumented.
func NewRecorder(f *Fleet) *Recorder {
	return &Recorder{f: f, start: time.Now()}
}

func (r *Recorder) snapshot(verb, node string) CounterSnapshot {
	in := r.f.inst
	return CounterSnapshot{
		AtMs:      time.Since(r.start).Milliseconds(),
		Verb:      verb,
		Node:      node,
		Hits:      in.Hits.Value(),
		Misses:    in.Misses.Value(),
		Failovers: in.Failovers.Value(),
		Exhausted: in.Exhausted.Value(),
		Live:      r.f.Live(),
	}
}

// Observe records the counters as ev fires.
func (r *Recorder) Observe(ev chaos.Event) {
	s := r.snapshot(ev.Verb, ev.Node)
	r.mu.Lock()
	r.snaps = append(r.snaps, s)
	r.mu.Unlock()
}

// Report takes the final snapshot and derives the windows, plus the
// recovery verdict when tol > 0.
func (r *Recorder) Report(tol float64) RecoveryReport {
	r.mu.Lock()
	defer r.mu.Unlock()
	rep := RecoveryReport{Snapshots: r.snaps, Totals: r.snapshot("end", "")}
	var first, lastRepair *CounterSnapshot
	for i := range r.snaps {
		switch r.snaps[i].Verb {
		case "kill", "pause", "partition", "dead":
			if first == nil {
				first = &r.snaps[i]
			}
		case "restart", "heal", "mark":
			lastRepair = &r.snaps[i]
		}
	}
	if first != nil {
		rep.PreFault = windowBetween(CounterSnapshot{}, *first)
	}
	if lastRepair != nil {
		rep.Settled = windowBetween(*lastRepair, rep.Totals)
	}
	if tol > 0 && rep.PreFault != nil && rep.Settled != nil {
		rep.Recovery = &Recovery{
			PreRatio:     rep.PreFault.Ratio,
			SettledRatio: rep.Settled.Ratio,
			Tolerance:    tol,
			Pass:         rep.Settled.Ratio >= rep.PreFault.Ratio-tol,
		}
	}
	return rep
}
