package main

import (
	"bytes"
	"context"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"repro/internal/core"
	"repro/internal/experiments"
	"repro/internal/flows"
	"repro/internal/ingest"
	"repro/internal/logfmt"
	"repro/internal/ngram"
	"repro/internal/obs"
	"repro/internal/periodicity"
	"repro/internal/synth"
)

// synthMeter accumulates what corpus generation cost, over every
// set-up of a run.
type synthMeter struct {
	records int64
	wall    time.Duration
	alloc   uint64
}

// generate collects the records of one synthetic dataset — the same
// core.Collect(core.SynthSource) call the experiments runner makes, so
// the records are the ones a runner would generate for itself.
func (r *run) generate(cfg synth.Config) ([]logfmt.Record, error) {
	var recs []logfmt.Record
	var err error
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	d := r.rec.phase("synth.Generate", func() {
		recs, err = core.Collect(core.SynthSource(cfg))
	})
	runtime.ReadMemStats(&after)
	r.synth.records += int64(len(recs))
	r.synth.wall += d
	r.synth.alloc += after.TotalAlloc - before.TotalAlloc
	return recs, err
}

// endSetup closes one set-up. It collects the set-up's garbage first, so
// that the timed part starts from the same heap whatever the set-up
// left behind.
func (r *run) endSetup(start time.Time) {
	runtime.GC()
	r.setups = append(r.setups, time.Since(start).Seconds())
}

func (r *run) setSynthMetrics() {
	r.m.set("synth.records_per_s", ratio(float64(r.synth.records), r.synth.wall.Seconds()))
	r.m.set("synth.alloc_b_per_record", ratio(float64(r.synth.alloc), float64(r.synth.records)))
}

// writeChunks writes recs to path as a .cdnc container.
func writeChunks(path string, recs []logfmt.Record, cfg logfmt.ChunkConfig) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := logfmt.NewChunkWriter(f, cfg)
	for i := range recs {
		if err := w.Write(&recs[i]); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Close(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// readChunks decodes a .cdnc file through ingest.RunChunks into memory.
func readChunks(ctx context.Context, path string, workers, sizeHint int) ([]logfmt.Record, ingest.Stats, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, ingest.Stats{}, err
	}
	defer f.Close()
	recs := make([]logfmt.Record, 0, sizeHint)
	st, err := ingest.RunChunks(ctx, f, ingest.PipelineConfig{Workers: workers}, func(rec *logfmt.Record) error {
		recs = append(recs, *rec)
		return nil
	})
	return recs, st, err
}

// batchCorpus is one set-up of repro-batch: the two datasets of one
// seed, serialised.
type batchCorpus struct {
	cfg                    experiments.Config
	shortPath, patternPath string
	nShort, nPattern       int
	pattern                []logfmt.Record // kept for the traced direct calls
}

func (c *batchCorpus) records() int { return c.nShort + c.nPattern }

func (r *run) batchConfig(k int) experiments.Config {
	cfg := experiments.DefaultConfig()
	cfg.Seed = r.subSeed(k)
	cfg.Jobs = r.p
	// A quarter of jsonrepro's default datasets at half its permutation
	// count: a pass takes a few seconds, so a run fits several. The
	// shape is the default's: the periodicity analysis is the largest
	// single share, the prefetch simulation next.
	cfg.Scale = 0.0005
	cfg.PatternTarget = 24_000
	cfg.PatternWindow = time.Hour
	cfg.Permutations = 50
	if r.opt.short {
		cfg.Scale = 0.0002
		cfg.PatternTarget = 6_000
		cfg.Permutations = 10
	}
	return cfg
}

func (r *run) setupBatch(k int) (*batchCorpus, error) {
	start := time.Now()
	c := &batchCorpus{cfg: r.batchConfig(k)}
	short, err := r.generate(synth.ShortTermConfig(c.cfg.Seed, c.cfg.Scale))
	if err != nil {
		return nil, err
	}
	pattern, err := r.generate(experiments.NewRunner(c.cfg).PatternConfig())
	if err != nil {
		return nil, err
	}
	c.nShort, c.nPattern = len(short), len(pattern)
	c.shortPath = filepath.Join(r.tmp, fmt.Sprintf("short-%d.cdnc", k))
	c.patternPath = filepath.Join(r.tmp, fmt.Sprintf("pattern-%d.cdnc", k))
	flate := logfmt.ChunkConfig{Codec: logfmt.CodecFlate}
	r.rec.phase("logfmt.ChunkWriter", func() {
		if err = writeChunks(c.shortPath, short, flate); err == nil {
			err = writeChunks(c.patternPath, pattern, flate)
		}
	})
	if err != nil {
		return nil, err
	}
	if r.opt.trace && k == 0 {
		c.pattern = pattern
	}
	r.endSetup(start)
	return c, nil
}

// passTimes collects the timed passes of a batch workload by corpus.
// The corpora of a run differ in content — one seed's pattern dataset
// has four periodic objects, the next has five — and may get unequal
// numbers of passes, so the run's figures weigh every corpus once:
// each contributes the best quarter of its own passes.
type passTimes struct {
	walls   [][]float64 // seconds, by corpus
	records []int
	total   time.Duration
	slowest time.Duration
}

// timedPasses runs pass over corpora 0 … n-1 in turn until the time is
// up and every corpus has had one (at smoke-test size: one each). pass
// returns the records it took in and how long it took.
func (r *run) timedPasses(n int, pass func(k int) (records int, wall time.Duration, err error)) (passTimes, error) {
	t := passTimes{walls: make([][]float64, n), records: make([]int, n)}
	for i := 0; i < n || (t.total.Seconds() < r.opt.seconds && !r.opt.short); i++ {
		k := i % n
		records, wall, err := pass(k)
		if err != nil {
			return t, err
		}
		t.walls[k] = append(t.walls[k], wall.Seconds())
		t.records[k] = records
		t.total += wall
		t.slowest = max(t.slowest, wall)
	}
	return t, nil
}

func (t *passTimes) passes() int {
	n := 0
	for _, w := range t.walls {
		n += len(w)
	}
	return n
}

// report sets the batch workloads' end-to-end metrics from each corpus's
// best quarter of passes (see bestTime; the fastest pass, below five):
// records a second over the corpora, and the pass time — input to
// complete result — averaged over them.
func (t *passTimes) report(m metricSet) {
	var best, records float64
	for k, w := range t.walls {
		best += bestTime(w)
		records += float64(t.records[k])
	}
	m.set("throughput_per_s", records/best)
	m.set("p50_ms", best/float64(len(t.walls))*1e3)
}

// traced sets the pass statistics only the traced run prints.
func (t *passTimes) traced(m metricSet) {
	m.set("bench.latency_samples", float64(t.passes()))
	m.set("bench.slowest_pass_ms", t.slowest.Seconds()*1e3)
}

// batchPass is what one timed pass over a corpus produced.
type batchPass struct {
	wall, ingestWall, runAllWall, materialize time.Duration
	report                                    []byte
	quarantined                               int64
}

// pass is the jsonrepro path once through: decode both files, hand the
// records to a fresh runner, run every experiment.
func (r *run) pass(ctx context.Context, c *batchCorpus) (batchPass, error) {
	var p batchPass
	start := time.Now()
	var short, pattern []logfmt.Record
	var st1, st2 ingest.Stats
	var err error
	p.ingestWall = r.rec.phase("ingest.RunChunks", func() {
		if short, st1, err = readChunks(ctx, c.shortPath, r.p, c.nShort); err == nil {
			pattern, st2, err = readChunks(ctx, c.patternPath, r.p, c.nPattern)
		}
	})
	if err != nil {
		return p, err
	}
	p.quarantined = st1.Quarantined + st2.Quarantined
	r.attempted += int64(c.records())
	r.failed += p.quarantined + int64(c.records()-len(short)-len(pattern))
	r.check(len(short) == c.nShort && len(pattern) == c.nPattern,
		"repro-batch: wrote %d+%d records, decoded %d+%d", c.nShort, c.nPattern, len(short), len(pattern))

	runner := experiments.NewRunner(c.cfg)
	var tr *obs.Trace
	if r.opt.trace {
		tr = obs.NewTrace()
		runner.Instrument(nil, tr)
	}
	runner.UseShortTermRecords(short)
	runner.UsePatternRecords(pattern)
	var buf bytes.Buffer
	var rep *experiments.Report
	p.runAllWall = r.rec.phase("experiments.RunAll", func() {
		rep, err = runner.RunAllContext(ctx, &buf)
	})
	p.wall = time.Since(start)
	if err != nil {
		return p, err
	}
	r.countSteps(rep)
	p.report = buf.Bytes()
	for _, sp := range tr.Spans() {
		if sp.Name == "materialize datasets" {
			p.materialize = sp.Wall
		}
	}
	return p, nil
}

// countSteps charges a report's steps to attempted/failed.
func (r *run) countSteps(rep *experiments.Report) {
	r.attempted += int64(len(rep.Steps))
	notDone := len(rep.Steps) - rep.Completed()
	r.failed += int64(notDone)
	r.check(len(rep.Steps) == 13 && notDone == 0, "repro-batch: %d of %d steps completed", rep.Completed(), len(rep.Steps))
}

func reproBatch(ctx context.Context, r *run) error {
	corpora := make([]*batchCorpus, r.corpora())
	for k := range corpora {
		c, err := r.setupBatch(k)
		if err != nil {
			return err
		}
		corpora[k] = c
	}

	var runAlls, materialize []float64
	var ingestTotal time.Duration
	var quarantined int64
	var report0 []byte
	timed, err := r.timedPasses(len(corpora), func(k int) (int, time.Duration, error) {
		p, err := r.pass(ctx, corpora[k])
		if k == 0 {
			report0 = p.report
		}
		runAlls = append(runAlls, p.runAllWall.Seconds())
		materialize = append(materialize, p.materialize.Seconds())
		ingestTotal += p.ingestWall
		quarantined += p.quarantined
		return corpora[k].records(), p.wall, err
	})
	if err != nil {
		return err
	}
	timed.report(r.m)

	// Reference: the same experiments over records that were never
	// serialised, on one worker. The report must match byte for byte,
	// which covers the container round trip and the parallel scheduler.
	ref := corpora[0].cfg
	ref.Jobs = 1
	var refBuf bytes.Buffer
	var rep *experiments.Report
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	j1 := r.rec.phase("experiments.RunAll jobs=1 (reference)", func() {
		rep, err = experiments.NewRunner(ref).RunAllContext(ctx, &refBuf)
	})
	runtime.ReadMemStats(&after)
	if err != nil {
		return err
	}
	r.countSteps(rep)
	r.check(bytes.Equal(report0, refBuf.Bytes()),
		"repro-batch: report over decoded records differs from the report over never-serialised records")

	if !r.opt.trace {
		return nil
	}
	r.setSynthMetrics()
	timed.traced(r.m)
	r.m.set("ingest.quarantined", float64(quarantined))
	share := ingestTotal.Seconds() / timed.total.Seconds()
	r.m.set("ingest.wall_share", share)
	r.check(share < 0.02, "repro-batch: logfmt+ingest took %.1f%% of the pass, want <2%%", share*100)
	jp := median(runAlls)
	r.m.set("experiments.runall_s", jp)
	r.m.set("experiments.runall_j1_s", j1.Seconds())
	r.m.set("experiments.parallel_speedup", ratio(j1.Seconds(), jp))
	r.m.set("experiments.resource_phase_s", median(materialize))
	for i, name := range stepNames {
		if i < len(rep.Steps) {
			r.m.set("experiments.step_s."+name, rep.Steps[i].Wall.Seconds())
		}
	}
	r.m.set("experiments.alloc_mb", float64(after.TotalAlloc-before.TotalAlloc)/(1<<20))
	r.m.set("experiments.mallocs_m", float64(after.Mallocs-before.Mallocs)/1e6)
	r.m.set("experiments.steps_failed", float64(len(rep.Steps)-rep.Completed()))
	r.directPeriodicity(corpora[0])
	r.directNgram(corpora[0])
	return nil
}

// stepNames are RunAll's steps in paper order, as the step_s metrics
// name them.
var stepNames = []string{
	"figure1", "table2", "figure3", "figure4", "figure5", "figure6", "table3",
	"prefetch", "deprioritize", "anomaly", "regional", "resilience", "adversarial",
}

// directPeriodicity times the §5.1 pipeline by itself, the way the
// runner calls it: flow extraction, then the permutation detector.
func (r *run) directPeriodicity(c *batchCorpus) {
	var nFlows int
	d := r.rec.phase("periodicity.Analyze", func() {
		ex := flows.NewExtractor()
		ex.Filter = logfmt.JSONOnly
		for i := range c.pattern {
			ex.Observe(&c.pattern[i])
		}
		cfg := periodicity.DefaultConfig()
		cfg.Detector.Permutations = c.cfg.Permutations
		cfg.SampleBin = c.cfg.SampleBin
		cfg.Seed = c.cfg.Seed
		nFlows = len(periodicity.Analyze(ex.Flows(), ex.TotalObserved(), cfg).Objects)
	})
	r.m.set("periodicity.analyze_s", d.Seconds())
	r.m.set("periodicity.flows", float64(nFlows))
	r.m.set("periodicity.ms_per_flow", ratio(d.Seconds()*1e3, float64(nFlows)))
}

// sink keeps the results of fixed-iteration direct calls alive so the
// compiler cannot drop them.
var sink int

// directNgram times §5.2 model training and top-K prediction by
// themselves, on the order-1 actual-URL model of Table 3.
func (r *run) directNgram(c *batchCorpus) {
	seq := ngram.NewSequencer()
	seq.Filter = logfmt.JSONOnly
	for i := range c.pattern {
		seq.Observe(&c.pattern[i])
	}
	train, test := seq.Split()
	model := ngram.NewModel(1)
	tokens := 0
	d := r.rec.phase("ngram.Train", func() {
		for _, s := range train {
			model.Train(s)
			tokens += len(s)
		}
	})
	r.m.set("ngram.train_ns_per_token", ratio(float64(d.Nanoseconds()), float64(tokens)))
	calls := 0
	d = r.rec.phase("ngram.PredictTopK", func() {
		for _, s := range test {
			for i := 1; i < len(s); i++ {
				sink += len(model.PredictTopK(s[i-1:i], 5))
				calls++
			}
		}
	})
	r.m.set("ngram.predict_topk_ns", ratio(float64(d.Nanoseconds()), float64(calls)))
}
