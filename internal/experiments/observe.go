package experiments

import (
	"context"
	"fmt"
	"io"

	"repro/internal/ingest"
	"repro/internal/logfmt"
	"repro/internal/obs"
)

// observer is a step that is one fold over the log — the §4 counters of
// Table 2, Fig. 2/3 and Fig. 4: its state, a fold over one record, and
// a report of the fold. Over materialized datasets each such step folds
// its own observer over its own slice; RunFile instead streams a log
// file once through every selected observer and never holds it.
type observer interface {
	// observe folds rec, a record of every dataset in d (needShort,
	// needPattern, or both when one file is both datasets).
	observe(d stepNeed, rec *logfmt.Record)
	// report writes the step's section to w and stores its result in
	// rep.
	report(rep *Report, w io.Writer)
}

// runObserver folds a fresh observer of st over the datasets st reads,
// or takes the one RunFile already streamed, and reports it.
func (r *Runner) runObserver(st step, rep *Report, w io.Writer) error {
	o := r.streamed[st.key]
	if o == nil {
		o = st.observer(r)
		for _, d := range []*dataset{r.short, r.pattern} {
			need := d.reads & st.needs
			if need == 0 {
				continue
			}
			if r.file != "" {
				// One file is both datasets and one slice: fold it
				// once, as RunFile's stream does.
				need = st.needs
			}
			recs, err := r.records(d)
			if err != nil {
				return err
			}
			for i := range recs {
				o.observe(need, &recs[i])
			}
			if r.file != "" {
				break
			}
		}
	}
	o.report(rep, w)
	return nil
}

// observeStep runs the observer step key outside a scheduled run, for
// the exhibit methods (Table2, Figure3, Figure4).
func (r *Runner) observeStep(key string, w io.Writer) (*Report, error) {
	rep := &Report{}
	for _, st := range stepTable {
		if st.key == key {
			return rep, r.runObserver(st, rep, out(w))
		}
	}
	panic("experiments: no step " + key)
}

// RunFile is Run with the log file at path as both datasets. The file
// goes through the tolerant ingest path (ingest.FileSource, Config.Jobs
// decode workers, the default corrupt-record budget). When every
// selected step that reads a dataset is an observer, the file streams
// once through all of them and is never held in memory; otherwise it is
// decoded once into the one slice both datasets share. It returns the
// read's accounting even on error; a read cancelled by ctx returns the
// all-skipped ledger and ctx's error. Call it once, in place of Run.
func (r *Runner) RunFile(ctx context.Context, w io.Writer, path string, keys ...string) (*Report, ingest.Stats, error) {
	selected, err := selectSteps(keys)
	if err != nil {
		return nil, ingest.Stats{}, err
	}
	r.file = path
	stream := true
	for _, st := range selected {
		if st.needs != 0 && st.observer == nil {
			stream = false
		}
	}

	sp := r.trace.Start("read records file")
	src := &ingest.FileSource{Path: path, Ctx: obs.ContextWithSpan(ctx, sp),
		Config: ingest.PipelineConfig{
			Workers: r.cfg.Jobs,
			Options: ingest.Options{Metrics: ingest.NewInstrumentation(r.obsReg)},
		}}
	// The file is both datasets, so a streamed record is in every
	// dataset a step reads.
	var folds []func(*logfmt.Record)
	if stream {
		r.streamed = map[string]observer{}
		for _, st := range selected {
			if st.observer != nil {
				o, d := st.observer(r), st.needs
				r.streamed[st.key] = o
				folds = append(folds, func(rec *logfmt.Record) { o.observe(d, rec) })
			}
		}
	}
	var n, bytes int64
	var recs []logfmt.Record
	// The decoder shares strings only within a chunk; the kept slice
	// shares each URL and user agent across the whole file.
	intern := logfmt.NewInterner(0)
	err = src.Each(func(rec *logfmt.Record) error {
		n++
		bytes += rec.Bytes
		if !stream {
			recs = append(recs, *rec)
			kept := &recs[len(recs)-1]
			kept.URL = intern.Intern(kept.URL)
			kept.UserAgent = intern.Intern(kept.UserAgent)
		}
		for _, f := range folds {
			f(rec)
		}
		return nil
	})
	sp.AddRecords(n)
	sp.AddBytes(bytes)
	sp.End()
	if err != nil && ctx.Err() == nil {
		return nil, src.LastStats, fmt.Errorf("experiments: reading %s: %w", path, err)
	}
	r.use(r.short, recs, n, bytes)
	r.use(r.pattern, recs, n, bytes)
	// A cancelled read leaves ctx cancelled, and schedule then returns
	// the all-skipped ledger with ctx's error.
	rep, err := r.schedule(ctx, out(w), selected)
	return rep, src.LastStats, err
}
