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
// analyses are all functions of the log stream: once the shared datasets
// exist, each figure/table reads them (and its own local RNG streams)
// without mutating anything another step can see. The scheduler exploits
// exactly that — it materializes the union of the selected steps'
// declared needs up front (the two datasets, then the memoized
// periodicity analysis), then runs the steps themselves, both phases on
// the same Config.Jobs workers. Each step writes into its own buffer;
// buffers flush to the caller's writer in paper order, as soon as the
// prefix of finished steps allows, so the emitted report is the same
// bytes at every worker count.

// schedule runs selected (a paper-order subset of the step table) and
// returns the report with its ledger. Dispatch is strictly in paper
// order and stops at the first failure or cancellation, so the started
// steps always form a prefix: in-flight steps finish (and their text is
// flushed), unstarted steps stay skipped.
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

	if failed, err := r.materialize(ctx, root, selected); err != nil {
		// A dataset failed; charge it to the first step that reads it.
		rep.Steps[failed].State = StepFailed
		return rep, fmt.Errorf("%s: %w", selected[failed].span, err)
	}
	if err := ctx.Err(); err != nil {
		return rep, err
	}

	var running *obs.Gauge
	var wallHist *obs.HDRHistogram
	if r.obsReg != nil {
		running = r.obsReg.Gauge("experiments_steps_running")
		wallHist = r.obsReg.HDR("experiments_step_wall_seconds", obs.LatencyHDRConfig())
	}

	bufs := make([]bytes.Buffer, len(selected))
	errs := make([]error, len(selected))
	finished := make([]bool, len(selected))
	next := 0
	r.each(ctx, len(selected), func(i, worker int) error {
		st := selected[i]
		fmt.Fprintf(&bufs[i], "\n== %s ==\n", st.title)
		if running != nil {
			running.Inc()
			defer running.Dec()
		}
		sp := root.Child(st.span)
		sp.SetAttrs(obs.Int("worker", worker))
		start := time.Now()
		err := st.fn(r, rep, &bufs[i])
		sp.End()
		rep.Steps[i].Wall = time.Since(start)
		if wallHist != nil {
			wallHist.RecordDuration(rep.Steps[i].Wall)
		}
		return err
	}, func(i int, err error) {
		errs[i], finished[i] = err, true
		rep.Steps[i].Records, rep.Steps[i].Bytes = r.datasetTotals(selected[i].needs)
		rep.Steps[i].State = StepCompleted
		if err != nil {
			rep.Steps[i].State = StepFailed
		}
		// Because dispatch is a strict prefix, streaming the contiguous
		// finished prefix covers every started step by the last call.
		for ; next < len(selected) && finished[next]; next++ {
			if _, werr := w.Write(bufs[next].Bytes()); werr != nil {
				// Keep collecting outcomes so the ledger is right, but
				// there is nowhere left to write the text.
				w = io.Discard
			}
		}
	})

	// First failure in paper order wins.
	for i, err := range errs {
		if err != nil {
			return rep, fmt.Errorf("%s: %w", selected[i].span, err)
		}
	}
	return rep, ctx.Err()
}

// materialize generates the union of the steps' declared resources
// under one "materialize datasets" span, so the trace shows the up-front
// phase distinctly from the steps: the short-term and pattern datasets,
// and after the latter the periodicity analysis that consumes it. On
// error it also returns the index of the first step that needs the
// failed resource.
func (r *Runner) materialize(ctx context.Context, root *obs.Span, selected []step) (failed int, err error) {
	var need stepNeed
	for _, st := range selected {
		need |= st.needs
	}
	var wanted []*dataset
	for _, d := range []*dataset{r.short, r.pattern} {
		if need&d.reads != 0 {
			wanted = append(wanted, d)
		}
	}
	sp := root.Child("materialize datasets")
	defer sp.End()
	errs := make([]error, len(wanted))
	r.each(ctx, len(wanted), func(i, _ int) error {
		d := wanted[i]
		_, err := r.records(d, sp)
		if err == nil && d == r.pattern && need&needPeriodicity != 0 {
			_, err = r.periodicity()
		}
		return err
	}, func(i int, err error) { errs[i] = err })
	for i, err := range errs {
		if err != nil {
			reads := func(st step) bool { return st.needs&wanted[i].reads != 0 }
			return slices.IndexFunc(selected, reads), err
		}
	}
	return 0, nil
}

// each is the worker pool both phases share: it runs work(0 … n-1) on
// up to Config.Jobs goroutines, handing indices out in order and handing
// out no more once one has failed or ctx is cancelled, and calls done on
// the caller's goroutine as each finishes.
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
