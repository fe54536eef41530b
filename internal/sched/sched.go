// Package sched simulates request scheduling at an edge server to
// evaluate the paper's proposed optimization (§5.1, §7): deprioritize
// machine-to-machine traffic, since no human is waiting on it. A
// discrete-event simulation processes a request stream on a fixed pool
// of workers under either FIFO or human-priority scheduling and reports
// per-class queueing latency, quantifying how much human-perceived
// latency the policy buys and what it costs the machine traffic.
package sched

import (
	"container/heap"
	"fmt"
	"sort"
	"time"

	"repro/internal/obs"
	"repro/internal/stats"
)

// Class partitions requests by initiator.
type Class uint8

const (
	// ClassHuman marks human-triggered requests (a person is waiting).
	ClassHuman Class = iota
	// ClassMachine marks machine-to-machine requests (periodic polls,
	// telemetry), the deprioritization target.
	ClassMachine
)

// String returns the class label.
func (c Class) String() string {
	if c == ClassMachine {
		return "machine"
	}
	return "human"
}

// Request is one unit of work for the edge.
type Request struct {
	// Arrival is when the request reaches the server.
	Arrival time.Time
	// Service is the processing time it needs on a worker.
	Service time.Duration
	// Class is the initiator class.
	Class Class
}

// Discipline selects the queueing policy.
type Discipline uint8

const (
	// FIFO serves requests strictly in arrival order.
	FIFO Discipline = iota
	// PriorityHuman serves any queued human request before any queued
	// machine request (non-preemptive).
	PriorityHuman
)

// String returns the discipline label.
func (d Discipline) String() string {
	if d == PriorityHuman {
		return "priority-human"
	}
	return "fifo"
}

// Config parameterizes a simulation run.
type Config struct {
	// Workers is the number of concurrent request processors (>= 1).
	Workers int
	// Discipline is the queueing policy.
	Discipline Discipline
	// Obs, if non-nil, receives every request's queueing delay into the
	// sched_queue_latency_seconds summary labeled by class, so scrapes
	// see the same per-class latency distributions the Result summarizes.
	Obs *obs.Registry
}

// ClassStats summarizes one class's latency outcomes.
type ClassStats struct {
	Requests int
	// Wait aggregates queueing delay (time from arrival to service
	// start), the component scheduling can influence.
	Wait stats.Summary
	// P50, P95, and P99 are queueing-delay percentiles in seconds.
	P50, P95, P99 float64
}

// Result is a simulation outcome.
type Result struct {
	Config  Config
	Human   ClassStats
	Machine ClassStats
	// Makespan is the total simulated span from first arrival to last
	// completion.
	Makespan time.Duration
	// Utilization is busy worker-time over Workers * Makespan.
	Utilization float64
}

// Simulate runs the request stream through the configured server. The
// input is sorted by arrival time internally; it is not modified.
func Simulate(reqs []Request, cfg Config) (Result, error) {
	if cfg.Workers < 1 {
		return Result{}, fmt.Errorf("sched: need at least one worker, got %d", cfg.Workers)
	}
	if len(reqs) == 0 {
		return Result{Config: cfg}, nil
	}
	sorted := make([]Request, len(reqs))
	copy(sorted, reqs)
	sort.SliceStable(sorted, func(i, j int) bool {
		return sorted[i].Arrival.Before(sorted[j].Arrival)
	})

	// Workers as a min-heap of free times.
	free := make(timeHeap, cfg.Workers)
	for i := range free {
		free[i] = sorted[0].Arrival
	}
	heap.Init(&free)

	var humanWaits, machineWaits []float64
	var res Result
	res.Config = cfg
	var busy time.Duration
	var lastCompletion time.Time

	var humanLat, machineLat *obs.HDRHistogram
	if cfg.Obs != nil {
		cfg.Obs.Help("sched_queue_latency_seconds", "Simulated queueing delay by request class.")
		humanLat = cfg.Obs.HDR("sched_queue_latency_seconds", obs.LatencyHDRConfig(), "class", ClassHuman.String())
		machineLat = cfg.Obs.HDR("sched_queue_latency_seconds", obs.LatencyHDRConfig(), "class", ClassMachine.String())
	}

	serve := func(r Request, start time.Time) {
		if start.Before(r.Arrival) {
			start = r.Arrival
		}
		wait := start.Sub(r.Arrival)
		end := start.Add(r.Service)
		heap.Push(&free, end)
		busy += r.Service
		if end.After(lastCompletion) {
			lastCompletion = end
		}
		w := wait.Seconds()
		if r.Class == ClassHuman {
			humanWaits = append(humanWaits, w)
			res.Human.Wait.Add(w)
			res.Human.Requests++
			if humanLat != nil {
				humanLat.RecordDuration(wait)
			}
		} else {
			machineWaits = append(machineWaits, w)
			res.Machine.Wait.Add(w)
			res.Machine.Requests++
			if machineLat != nil {
				machineLat.RecordDuration(wait)
			}
		}
	}

	switch cfg.Discipline {
	case FIFO:
		for _, r := range sorted {
			start := heap.Pop(&free).(time.Time)
			serve(r, start)
		}
	case PriorityHuman:
		// Event loop: pull arrivals into per-class queues; whenever a
		// worker frees up, serve the oldest queued human first.
		var humanQ, machineQ queue
		i := 0
		n := len(sorted)
		for i < n || humanQ.len() > 0 || machineQ.len() > 0 {
			nextFree := free[0]
			// Admit every request that has arrived by the time a worker
			// is free; if queues are empty, jump to the next arrival.
			if humanQ.len() == 0 && machineQ.len() == 0 && i < n && sorted[i].Arrival.After(nextFree) {
				nextFree = sorted[i].Arrival
			}
			for i < n && !sorted[i].Arrival.After(nextFree) {
				if sorted[i].Class == ClassHuman {
					humanQ.push(sorted[i])
				} else {
					machineQ.push(sorted[i])
				}
				i++
			}
			var r Request
			switch {
			case humanQ.len() > 0:
				r = humanQ.pop()
			case machineQ.len() > 0:
				r = machineQ.pop()
			default:
				continue // jump forward to next arrival
			}
			start := heap.Pop(&free).(time.Time)
			serve(r, start)
		}
	default:
		return Result{}, fmt.Errorf("sched: unknown discipline %d", cfg.Discipline)
	}

	res.Human.P50, res.Human.P95, res.Human.P99 = percentiles(humanWaits)
	res.Machine.P50, res.Machine.P95, res.Machine.P99 = percentiles(machineWaits)
	res.Makespan = lastCompletion.Sub(sorted[0].Arrival)
	if res.Makespan > 0 {
		res.Utilization = busy.Seconds() / (res.Makespan.Seconds() * float64(cfg.Workers))
	}
	return res, nil
}

func percentiles(xs []float64) (p50, p95, p99 float64) {
	if len(xs) == 0 {
		return 0, 0, 0
	}
	qs := stats.Quantiles(xs, 0.5, 0.95, 0.99)
	return qs[0], qs[1], qs[2]
}

// queue is a FIFO of requests backed by a slice with amortized pops.
type queue struct {
	items []Request
	head  int
}

func (q *queue) push(r Request) { q.items = append(q.items, r) }
func (q *queue) len() int       { return len(q.items) - q.head }
func (q *queue) pop() Request {
	r := q.items[q.head]
	q.head++
	if q.head > 1024 && q.head*2 > len(q.items) {
		q.items = append(q.items[:0], q.items[q.head:]...)
		q.head = 0
	}
	return r
}

// timeHeap is a min-heap of worker free times.
type timeHeap []time.Time

func (h timeHeap) Len() int            { return len(h) }
func (h timeHeap) Less(i, j int) bool  { return h[i].Before(h[j]) }
func (h timeHeap) Swap(i, j int)       { h[i], h[j] = h[j], h[i] }
func (h *timeHeap) Push(x interface{}) { *h = append(*h, x.(time.Time)) }
func (h *timeHeap) Pop() interface{} {
	old := *h
	n := len(old)
	t := old[n-1]
	*h = old[:n-1]
	return t
}

// Compare runs the same stream under FIFO and PriorityHuman and returns
// both results.
func Compare(reqs []Request, workers int) (fifo, prio Result, err error) {
	fifo, err = Simulate(reqs, Config{Workers: workers, Discipline: FIFO})
	if err != nil {
		return
	}
	prio, err = Simulate(reqs, Config{Workers: workers, Discipline: PriorityHuman})
	return
}
