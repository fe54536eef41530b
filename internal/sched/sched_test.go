package sched

import (
	"strings"
	"testing"
	"time"

	"repro/internal/obs"
	"repro/internal/stats"
)

var t0 = time.Date(2019, 5, 1, 0, 0, 0, 0, time.UTC)

// burst builds n requests of the given class arriving at the same
// instant, each needing service time svc.
func burst(n int, class Class, at time.Time, svc time.Duration) []Request {
	reqs := make([]Request, n)
	for i := range reqs {
		reqs[i] = Request{Arrival: at, Service: svc, Class: class}
	}
	return reqs
}

func TestSimulateEmptyAndErrors(t *testing.T) {
	if _, err := Simulate(nil, Config{Workers: 0}); err == nil {
		t.Error("zero workers accepted")
	}
	res, err := Simulate(nil, Config{Workers: 1})
	if err != nil || res.Human.Requests != 0 {
		t.Errorf("empty sim: %v %+v", err, res)
	}
	if _, err := Simulate(burst(1, ClassHuman, t0, time.Second), Config{Workers: 1, Discipline: Discipline(9)}); err == nil {
		t.Error("unknown discipline accepted")
	}
}

func TestFIFOSingleWorkerWaits(t *testing.T) {
	// Three 1 s jobs arriving together: waits 0, 1, 2 s.
	reqs := burst(3, ClassHuman, t0, time.Second)
	res, err := Simulate(reqs, Config{Workers: 1, Discipline: FIFO})
	if err != nil {
		t.Fatal(err)
	}
	if res.Human.Requests != 3 {
		t.Fatalf("requests = %d", res.Human.Requests)
	}
	if got := res.Human.Wait.Mean(); got != 1 {
		t.Errorf("mean wait = %v, want 1", got)
	}
	if res.Makespan != 3*time.Second {
		t.Errorf("makespan = %v", res.Makespan)
	}
	if res.Utilization < 0.99 {
		t.Errorf("utilization = %v, want ~1", res.Utilization)
	}
}

func TestFIFOParallelWorkers(t *testing.T) {
	reqs := burst(4, ClassHuman, t0, time.Second)
	res, err := Simulate(reqs, Config{Workers: 4, Discipline: FIFO})
	if err != nil {
		t.Fatal(err)
	}
	if res.Human.Wait.Max() != 0 {
		t.Errorf("max wait = %v, want 0 with enough workers", res.Human.Wait.Max())
	}
	if res.Makespan != time.Second {
		t.Errorf("makespan = %v", res.Makespan)
	}
}

func TestPriorityServesHumansFirst(t *testing.T) {
	// A machine burst arrives just before a human burst; under FIFO the
	// humans wait behind the machines, under priority they jump ahead.
	var reqs []Request
	reqs = append(reqs, burst(20, ClassMachine, t0, time.Second)...)
	reqs = append(reqs, burst(5, ClassHuman, t0.Add(time.Millisecond), time.Second)...)
	fifo, prio, err := Compare(reqs, 2)
	if err != nil {
		t.Fatal(err)
	}
	if prio.Human.Wait.Mean() >= fifo.Human.Wait.Mean() {
		t.Errorf("priority human wait %.2fs not below FIFO %.2fs",
			prio.Human.Wait.Mean(), fifo.Human.Wait.Mean())
	}
	if prio.Machine.Wait.Mean() < fifo.Machine.Wait.Mean() {
		t.Errorf("machine traffic should pay: prio %.2fs < fifo %.2fs",
			prio.Machine.Wait.Mean(), fifo.Machine.Wait.Mean())
	}
	// Work-conserving: same total work, same utilization.
	if prio.Utilization == 0 || fifo.Utilization == 0 {
		t.Error("utilization not computed")
	}
}

func TestPriorityNonPreemptive(t *testing.T) {
	// One long machine job running; a human arrives mid-service and
	// must wait for it (non-preemptive), then be served before the
	// queued machine job.
	reqs := []Request{
		{Arrival: t0, Service: 10 * time.Second, Class: ClassMachine},
		{Arrival: t0.Add(time.Second), Service: time.Second, Class: ClassMachine},
		{Arrival: t0.Add(2 * time.Second), Service: time.Second, Class: ClassHuman},
	}
	res, err := Simulate(reqs, Config{Workers: 1, Discipline: PriorityHuman})
	if err != nil {
		t.Fatal(err)
	}
	// Human starts at 10 s (after the long job), waits 8 s.
	if got := res.Human.Wait.Mean(); got != 8 {
		t.Errorf("human wait = %v, want 8", got)
	}
	// Second machine job starts at 11 s, waits 10 s.
	if got := res.Machine.Wait.Max(); got != 10 {
		t.Errorf("machine max wait = %v, want 10", got)
	}
}

func TestIdlePeriodsSkipped(t *testing.T) {
	reqs := []Request{
		{Arrival: t0, Service: time.Second, Class: ClassHuman},
		{Arrival: t0.Add(time.Hour), Service: time.Second, Class: ClassHuman},
	}
	for _, d := range []Discipline{FIFO, PriorityHuman} {
		res, err := Simulate(reqs, Config{Workers: 1, Discipline: d})
		if err != nil {
			t.Fatal(err)
		}
		if res.Human.Wait.Max() != 0 {
			t.Errorf("%v: wait = %v across idle gap", d, res.Human.Wait.Max())
		}
		if res.Makespan != time.Hour+time.Second {
			t.Errorf("%v: makespan = %v", d, res.Makespan)
		}
	}
}

func TestInputNotMutated(t *testing.T) {
	reqs := []Request{
		{Arrival: t0.Add(time.Second), Service: time.Second, Class: ClassHuman},
		{Arrival: t0, Service: time.Second, Class: ClassMachine},
	}
	if _, err := Simulate(reqs, Config{Workers: 1, Discipline: PriorityHuman}); err != nil {
		t.Fatal(err)
	}
	if !reqs[0].Arrival.After(reqs[1].Arrival) {
		t.Error("input slice was reordered")
	}
}

func TestWorkConservation(t *testing.T) {
	// Under both disciplines every request is served exactly once, with
	// random arrivals and classes.
	rng := stats.NewRNG(3)
	var reqs []Request
	at := t0
	for i := 0; i < 500; i++ {
		at = at.Add(time.Duration(rng.Intn(50)) * time.Millisecond)
		class := ClassHuman
		if rng.Bool(0.4) {
			class = ClassMachine
		}
		reqs = append(reqs, Request{
			Arrival: at,
			Service: time.Duration(1+rng.Intn(40)) * time.Millisecond,
			Class:   class,
		})
	}
	fifo, prio, err := Compare(reqs, 3)
	if err != nil {
		t.Fatal(err)
	}
	if fifo.Human.Requests+fifo.Machine.Requests != 500 {
		t.Errorf("fifo served %d", fifo.Human.Requests+fifo.Machine.Requests)
	}
	if prio.Human.Requests+prio.Machine.Requests != 500 {
		t.Errorf("prio served %d", prio.Human.Requests+prio.Machine.Requests)
	}
	if fifo.Human.Requests != prio.Human.Requests {
		t.Error("class counts differ between disciplines")
	}
	// Percentiles are ordered.
	for _, cs := range []ClassStats{fifo.Human, prio.Human, fifo.Machine, prio.Machine} {
		if cs.P50 > cs.P95 || cs.P95 > cs.P99 {
			t.Errorf("percentiles out of order: %+v", cs)
		}
	}
}

func TestClassAndDisciplineStrings(t *testing.T) {
	if ClassHuman.String() != "human" || ClassMachine.String() != "machine" {
		t.Error("class labels wrong")
	}
	if FIFO.String() != "fifo" || PriorityHuman.String() != "priority-human" {
		t.Error("discipline labels wrong")
	}
}

func TestQueueCompaction(t *testing.T) {
	var q queue
	for i := 0; i < 5000; i++ {
		q.push(Request{Service: time.Duration(i)})
	}
	for i := 0; i < 5000; i++ {
		r := q.pop()
		if r.Service != time.Duration(i) {
			t.Fatalf("pop %d returned %v", i, r.Service)
		}
	}
	if q.len() != 0 {
		t.Errorf("len = %d", q.len())
	}
}

func TestSimulateObservesQueueLatency(t *testing.T) {
	reg := obs.NewRegistry()
	reqs := append(burst(4, ClassHuman, t0, time.Second),
		burst(3, ClassMachine, t0, time.Second)...)
	if _, err := Simulate(reqs, Config{Workers: 1, Discipline: PriorityHuman, Obs: reg}); err != nil {
		t.Fatal(err)
	}
	human := reg.HDR("sched_queue_latency_seconds", obs.HDRConfig{}, "class", "human")
	machine := reg.HDR("sched_queue_latency_seconds", obs.HDRConfig{}, "class", "machine")
	if human.Count() != 4 || machine.Count() != 3 {
		t.Errorf("latency observations = %d human / %d machine, want 4/3", human.Count(), machine.Count())
	}
	var b strings.Builder
	if err := reg.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(b.String(), `sched_queue_latency_seconds_count{class="machine"} 3`) {
		t.Errorf("scrape missing machine latency count:\n%s", b.String())
	}
}
