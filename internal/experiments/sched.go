package experiments

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/obs"
)

// This file is the scheduler every run goes through. The paper's
// analyses are all functions of the log stream: each figure/table reads
// the shared datasets (and its own local RNG streams) without mutating
// anything another step can see. The scheduler runs one worker pool,
// Config.Jobs wide, over one dispatch list (see plan): first the
// resources the selected steps declare — the short-term dataset, then
// the pattern dataset followed by the memoized periodicity analysis —
// then the steps that read none of them, then the rest. A step whose
// input is still being built waits on that resource's memo lock; every
// resource was handed out before any step, so the holder is always
// running and no width deadlocks, 1 included. Each step writes into its
// own buffer; buffers flush to the caller's writer in paper order as
// the prefix of finished steps allows, so the emitted report is the
// same bytes at every worker count.

// task is one entry of the dispatch list: building the shared resource
// d, or (d nil) running selected[step].
type task struct {
	d    *dataset
	step int
}

// needs is the union of steps' declared needs.
func needs(steps []step) stepNeed {
	var n stepNeed
	for _, st := range steps {
		n |= st.needs
	}
	return n
}

// plan returns the dispatch list of selected (a paper-order slice of the
// step table): the datasets the steps read, short-term then pattern,
// then the steps that declare no needs, then the rest, each group in
// paper order. It is a pure function of selected, so a run and the
// point a cancellation cuts it at are reproducible.
func (r *Runner) plan(selected []step) []task {
	need := needs(selected)
	var tasks []task
	for _, d := range []*dataset{r.short, r.pattern} {
		if need&d.reads != 0 {
			tasks = append(tasks, task{d: d})
		}
	}
	for _, free := range []bool{true, false} {
		for i, st := range selected {
			if (st.needs == 0) == free {
				tasks = append(tasks, task{step: i})
			}
		}
	}
	return tasks
}

// schedule runs selected (a paper-order subset of the step table) and
// returns the report with its ledger. Dispatch follows plan and stops at
// the first failure or cancellation, so the started steps always form a
// prefix of the dispatch order — not of paper order: in-flight steps
// finish and their text is written, still in paper order; unstarted
// steps stay skipped and write nothing. A failed resource is charged to
// the first step in paper order that reads it.
func (r *Runner) schedule(ctx context.Context, w io.Writer, selected []step) (*Report, error) {
	rep := &Report{Steps: make([]StepStatus, len(selected))}
	for i, st := range selected {
		rep.Steps[i] = StepStatus{Name: st.title, State: StepSkipped}
	}
	if err := ctx.Err(); err != nil {
		return rep, err
	}

	// The root span: the materialization and every step hang off it, so
	// the trace export is a single tree (RunAll → materialize → dataset,
	// RunAll → step).
	root := r.trace.Start("RunAll")
	defer root.End()
	root.SetAttrs(
		obs.Int64("seed", int64(r.cfg.Seed)),
		obs.Float("scale", r.cfg.Scale),
		obs.Int("jobs", r.cfg.Jobs),
	)

	tasks := r.plan(selected)
	need := needs(selected)
	// The resource tasks lead the list. "materialize datasets" is the
	// parent of their dataset spans, whoever generates, and ends with
	// the last of them (or here, if cancellation left one unstarted).
	mat := root.Child("materialize datasets")
	defer mat.End()
	resources := 0
	for ; resources < len(tasks) && tasks[resources].d != nil; resources++ {
		d := tasks[resources].d
		d.nest(mat)
		defer d.nest(nil)
	}
	pending := resources
	if pending == 0 {
		mat.End()
	}
	resErrs := make([]error, resources)

	var running *obs.Gauge
	var wallHist *obs.HDRHistogram
	if r.obsReg != nil {
		running = r.obsReg.Gauge("experiments_steps_running")
		wallHist = r.obsReg.HDR("experiments_step_wall_seconds", obs.LatencyHDRConfig())
	}

	bufs := make([]bytes.Buffer, len(selected))
	errs := make([]error, len(selected))
	finished := make([]bool, len(selected))
	write := func(i int) {
		if _, werr := w.Write(bufs[i].Bytes()); werr != nil {
			// Keep collecting outcomes so the ledger is right, but
			// there is nowhere left to write the text.
			w = io.Discard
		}
	}
	next := 0
	r.each(ctx, len(tasks), func(k, worker int) error {
		if d := tasks[k].d; d != nil {
			_, err := r.records(d)
			if err == nil && d == r.pattern && need&needPeriodicity != 0 {
				_, err = r.periodicity()
			}
			return err
		}
		i := tasks[k].step
		st := selected[i]
		fmt.Fprintf(&bufs[i], "\n== %s ==\n", st.title)
		if running != nil {
			running.Inc()
			defer running.Dec()
		}
		sp := root.Child(st.span)
		sp.SetAttrs(obs.Int("worker", worker))
		start := time.Now()
		var err error
		if st.observer != nil {
			err = r.runObserver(st, rep, &bufs[i])
		} else {
			err = st.fn(r, rep, &bufs[i])
		}
		sp.End()
		rep.Steps[i].Wall = time.Since(start)
		if wallHist != nil {
			wallHist.RecordDuration(rep.Steps[i].Wall)
		}
		return err
	}, func(k int, err error) {
		if k < resources {
			resErrs[k] = err
			if pending--; pending == 0 {
				mat.End()
			}
			return
		}
		i := tasks[k].step
		errs[i], finished[i] = err, true
		rep.Steps[i].Records, rep.Steps[i].Bytes = r.datasetTotals(selected[i].needs)
		rep.Steps[i].State = StepCompleted
		if err != nil {
			rep.Steps[i].State = StepFailed
		}
		for ; next < len(selected) && finished[next]; next++ {
			write(next)
		}
	})
	// A gap — a step skipped by cancellation or failure — holds back the
	// finished steps after it; write them now, still in paper order.
	for i := next; i < len(selected); i++ {
		if finished[i] {
			write(i)
		}
	}

	for k, err := range resErrs {
		if err == nil {
			continue
		}
		reads := func(st step) bool { return st.needs&tasks[k].d.reads != 0 }
		if i := slices.IndexFunc(selected, reads); errs[i] == nil {
			errs[i], rep.Steps[i].State = err, StepFailed
		}
	}
	// First failure in paper order wins.
	for i, err := range errs {
		if err != nil {
			return rep, fmt.Errorf("%s: %w", selected[i].span, err)
		}
	}
	return rep, ctx.Err()
}

// each is the scheduler's worker pool: it runs work(0 … n-1) on up to
// Config.Jobs goroutines, handing indices out in order and handing out
// no more once one has failed or ctx is cancelled, and calls done on the
// caller's goroutine as each finishes.
func (r *Runner) each(ctx context.Context, n int, work func(i, worker int) error, done func(i int, err error)) {
	type result struct {
		i   int
		err error
	}
	var abort atomic.Bool
	idxCh := make(chan int)
	results := make(chan result, n)

	var wg sync.WaitGroup
	for k := 0; k < min(r.cfg.Jobs, n); k++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range idxCh {
				err := work(i, k)
				if err != nil {
					abort.Store(true)
				}
				results <- result{i, err}
			}
		}()
	}
	go func() {
		defer close(idxCh)
		for i := 0; i < n && !abort.Load() && ctx.Err() == nil; i++ {
			select {
			case idxCh <- i:
			case <-ctx.Done():
				return
			}
		}
	}()
	go func() {
		wg.Wait()
		close(results)
	}()
	for res := range results {
		done(res.i, res.err)
	}
}
