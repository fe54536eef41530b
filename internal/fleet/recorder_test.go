package fleet

import (
	"testing"

	"repro/internal/fleet/chaos"
	"repro/internal/obs"
)

// recorderFleet is an instrumented fleet whose counters the test moves
// by hand; no request is ever served.
func recorderFleet() (*Fleet, *Instrumentation) {
	f := New(Config{}, &Member{Name: "edge-00", URL: "http://127.0.0.1:1"},
		&Member{Name: "edge-01", URL: "http://127.0.0.1:2"})
	return f, f.Instrument(obs.NewRegistry())
}

// TestRecorderWindows drives a fixed event and counter sequence: the
// pre-fault window ends at the first disruption (the kill, not the later
// pause), the settled one starts at the last repair (the mark, not the
// restart or heal), and the verdict passes exactly at the tolerance.
func TestRecorderWindows(t *testing.T) {
	f, inst := recorderFleet()
	rec := NewRecorder(f)
	step := func(hits, misses int64, ev chaos.Event) {
		inst.Hits.Add(hits)
		inst.Misses.Add(misses)
		rec.Observe(ev)
	}
	step(75, 25, chaos.Event{Verb: "kill", Node: "edge-01"})
	step(10, 40, chaos.Event{Verb: "restart", Node: "edge-01"})
	step(2, 8, chaos.Event{Verb: "pause", Node: "edge-00"})
	step(1, 9, chaos.Event{Verb: "heal", Node: "edge-00"})
	step(3, 7, chaos.Event{Verb: "mark", Node: "settled"})
	inst.Hits.Add(50)
	inst.Misses.Add(50)

	rep := rec.Report(0.25)
	if w := rep.PreFault; w == nil || *w != (HitWindow{Hits: 75, Misses: 25, Ratio: 0.75}) {
		t.Errorf("pre-fault = %+v, want 75/25 at 0.75", w)
	}
	if w := rep.Settled; w == nil || *w != (HitWindow{Hits: 50, Misses: 50, Ratio: 0.5}) {
		t.Errorf("settled = %+v, want 50/50 at 0.5", w)
	}
	if len(rep.Snapshots) != 5 || rep.Snapshots[0].Verb != "kill" || rep.Snapshots[4].Node != "settled" {
		t.Errorf("snapshots = %+v", rep.Snapshots)
	}
	if s := rep.Totals; s.Verb != "end" || s.Hits != 141 || s.Misses != 139 || s.Live != 2 {
		t.Errorf("totals = %+v", s)
	}
	want := Recovery{PreRatio: 0.75, SettledRatio: 0.5, Tolerance: 0.25, Pass: true}
	if rep.Recovery == nil || *rep.Recovery != want {
		t.Errorf("verdict at the tolerance = %+v, want %+v", rep.Recovery, want)
	}
	if r := rec.Report(0.24).Recovery; r == nil || r.Pass {
		t.Errorf("verdict just inside the tolerance = %+v, want a fail", r)
	}
	if r := rec.Report(0).Recovery; r != nil {
		t.Errorf("verdict without a tolerance = %+v, want none", r)
	}
}

// TestRecorderNoDisruption: a timeline of marks only has no pre-fault
// window and therefore no verdict, and an empty one has neither window.
func TestRecorderNoDisruption(t *testing.T) {
	f, inst := recorderFleet()
	rec := NewRecorder(f)
	inst.Hits.Add(9)
	inst.Misses.Add(1)
	if rep := rec.Report(0.1); rep.PreFault != nil || rep.Settled != nil || rep.Recovery != nil || rep.Totals.Hits != 9 {
		t.Errorf("empty timeline report = %+v", rep)
	}
	rec.Observe(chaos.Event{Verb: "mark", Node: "warm"})
	inst.Hits.Add(3)
	inst.Misses.Add(1)
	rep := rec.Report(0.1)
	if rep.PreFault != nil || rep.Recovery != nil {
		t.Errorf("marks-only report has pre-fault %+v, verdict %+v", rep.PreFault, rep.Recovery)
	}
	if w := rep.Settled; w == nil || w.Ratio != 0.75 {
		t.Errorf("settled after the mark = %+v, want 0.75", w)
	}
}
