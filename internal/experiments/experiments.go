// Package experiments contains one runner per table and figure in the
// paper's evaluation. Each runner generates (or reuses) the appropriate
// synthetic dataset, executes the corresponding analysis pipeline, prints
// the same rows/series the paper reports alongside the paper's numbers,
// and returns a structured result for tests and EXPERIMENTS.md.
//
// The runners target the paper's *shape* — who wins, rough factors,
// where crossovers fall — not its absolute numbers, since the substrate
// is a synthetic workload rather than Akamai's production logs.
package experiments

import (
	"fmt"
	"io"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/logfmt"
	"repro/internal/obs"
	"repro/internal/synth"
)

// Config sizes the experiment datasets.
type Config struct {
	// Seed drives all dataset generation and permutation tests.
	Seed uint64
	// Scale shrinks the Table 2 presets (1.0 = the paper's 25M/10M
	// records; the default 0.002 keeps a laptop run under a minute).
	Scale float64
	// PatternTarget is the record count of the pattern dataset used for
	// §5 (periodicity, prediction, prefetch).
	PatternTarget int
	// PatternWindow is the capture window of the pattern dataset. The
	// paper uses 24 h; the scaled default is 2 h so every feasible
	// period still fits >= 10 polls per client.
	PatternWindow time.Duration
	// Permutations is x in the periodicity detector (paper: 100).
	Permutations int
	// SampleBin is the periodicity sampling interval (paper: 1 s; the
	// scaled default is 2 s to bound FFT cost on long windows).
	SampleBin time.Duration
	// FaultRate is the steady-state origin error rate of the resilience
	// experiment (default 0.05).
	FaultRate float64
	// FaultSeed seeds fault injection and backoff jitter; 0 derives it
	// from Seed.
	FaultSeed uint64
	// Jobs is the width of the scheduler's one worker pool (0 means 1):
	// at most that many of a run's tasks — generating one shared
	// dataset, or one figure/table step — execute at once. It does not
	// bound the goroutines a task uses: the §5.1 periodicity analysis
	// (run after the pattern dataset, before the steps that read it)
	// fans its objects out over GOMAXPROCS workers whatever Jobs is. It
	// changes wall time only — each step's text is buffered and flushed
	// in paper order, so the report bytes are the same at every width.
	Jobs int
}

// DefaultConfig returns the laptop-scale defaults.
func DefaultConfig() Config {
	return Config{
		Seed:          42,
		Scale:         0.002,
		PatternTarget: 120_000,
		PatternWindow: 2 * time.Hour,
		Permutations:  100,
		SampleBin:     2 * time.Second,
	}
}

func (c *Config) sanitize() {
	if c.Scale <= 0 {
		c.Scale = 0.002
	}
	if c.PatternTarget <= 0 {
		c.PatternTarget = 120_000
	}
	if c.PatternWindow <= 0 {
		c.PatternWindow = 2 * time.Hour
	}
	if c.Permutations <= 0 {
		c.Permutations = 100
	}
	if c.SampleBin <= 0 {
		c.SampleBin = 2 * time.Second
	}
	if c.FaultRate <= 0 {
		c.FaultRate = 0.05
	}
	if c.FaultSeed == 0 {
		c.FaultSeed = c.Seed + 2
	}
	if c.Jobs <= 0 {
		c.Jobs = 1
	}
}

// Runner executes experiments, generating each dataset at most once.
// The dataset memos are mutex-guarded so the scheduler's workers (and
// any caller running individual experiments from several goroutines)
// generate each one exactly once.
type Runner struct {
	cfg Config

	obsReg *obs.Registry
	trace  *obs.Trace

	// health, when set via NotifyReady, flips ready once both shared
	// datasets are materialized.
	health *obs.Health

	short, pattern *dataset

	// perMu guards the periodicity memo: its result, or the first error
	// computing it, which every later reader gets.
	perMu          sync.Mutex
	periodicityRes *PeriodicityResult
	perErr         error
}

// dataset is one shared record set, generated on first use or injected
// (UseShortTermRecords, UsePatternRecords), with the byte total the step
// ledger reports.
type dataset struct {
	name  string              // "short-term" / "pattern", as spans and errors spell it
	reads stepNeed            // the step needs this dataset satisfies
	cfg   func() synth.Config // how to generate it

	mu sync.Mutex
	// parent is the span generation nests under: a run's "materialize
	// datasets" span while that run builds its resources, else nil (a
	// root span). Whichever reader takes mu first generates, so the span
	// tree must not depend on which one it is.
	parent *obs.Span
	recs   []logfmt.Record
	bytes  int64
	// err is the first generation error, kept so a failed dataset is
	// attempted once and every reader gets the same error.
	err error
	// done is an atomic so concurrent materializers can flip readiness
	// without ordering the dataset mutexes against each other.
	done atomic.Bool
}

// NewRunner returns a runner for the given configuration.
func NewRunner(cfg Config) *Runner {
	cfg.sanitize()
	r := &Runner{cfg: cfg}
	r.short = &dataset{name: "short-term", reads: needShort, cfg: r.shortTermConfig}
	r.pattern = &dataset{name: "pattern", reads: needPattern | needPeriodicity, cfg: r.PatternConfig}
	return r
}

// Config returns the runner's effective configuration.
func (r *Runner) Config() Config { return r.cfg }

// Instrument attaches a metrics registry and a stage tracer, either of
// which may be nil. The registry flows into the dataset generators and
// the scheduler simulation; the tracer gets one span per generated
// dataset and one per figure/table of a run. Call before running
// experiments.
func (r *Runner) Instrument(reg *obs.Registry, tr *obs.Trace) {
	r.obsReg = reg
	r.trace = tr
}

// NotifyReady attaches a readiness gate: once both shared datasets are
// materialized (generated or injected), h flips ready — the /readyz
// signal that the expensive startup work is behind the process. Call
// before running experiments; a nil h is ignored.
func (r *Runner) NotifyReady(h *obs.Health) { r.health = h }

// records returns d's records, generating them on first use inside a
// span under d.parent (a root span when that is nil).
func (r *Runner) records(d *dataset) ([]logfmt.Record, error) {
	d.mu.Lock()
	defer d.mu.Unlock()
	if d.recs == nil && d.err == nil {
		open := r.trace.Start
		if d.parent != nil {
			open = d.parent.Child
		}
		sp := open("synth " + d.name + " dataset")
		defer sp.End()
		recs, err := core.Collect(core.SynthSource(d.cfg()))
		if err != nil {
			d.err = fmt.Errorf("experiments: generating %s dataset: %w", d.name, err)
			return nil, d.err
		}
		r.set(d, recs)
		sp.AddRecords(int64(len(recs)))
		sp.AddBytes(d.bytes)
	}
	return d.recs, d.err
}

// nest sets the span d's generation nests under (nil: a root span).
func (d *dataset) nest(parent *obs.Span) {
	d.mu.Lock()
	d.parent = parent
	d.mu.Unlock()
}

// use injects recs as d in place of synthetic generation.
func (r *Runner) use(d *dataset, recs []logfmt.Record) {
	d.mu.Lock()
	defer d.mu.Unlock()
	r.set(d, recs)
}

// set stores d's records and byte total with d.mu held, and flips the
// readiness gate once both datasets have landed.
func (r *Runner) set(d *dataset, recs []logfmt.Record) {
	d.recs, d.bytes = recs, 0
	for i := range recs {
		d.bytes += recs[i].Bytes
	}
	d.done.Store(true)
	if r.short.done.Load() && r.pattern.done.Load() {
		r.health.SetReady(true)
	}
}

// ShortTermRecords returns (generating on first use) the scaled
// short-term dataset used by the §4 characterization experiments.
func (r *Runner) ShortTermRecords() ([]logfmt.Record, error) { return r.records(r.short) }

// PatternRecords returns (generating on first use) the pattern dataset
// standing in for the paper's long-term dataset in the §5 analyses.
func (r *Runner) PatternRecords() ([]logfmt.Record, error) { return r.records(r.pattern) }

// UseShortTermRecords injects recs as the short-term dataset in place
// of synthetic generation — the hook the robust-ingest path uses to run
// the §4 analyses over records tolerantly decoded from a (possibly
// corrupt) log file. Call before the first experiment touches the
// dataset.
func (r *Runner) UseShortTermRecords(recs []logfmt.Record) { r.use(r.short, recs) }

// UsePatternRecords injects recs as the §5 pattern dataset; see
// UseShortTermRecords.
func (r *Runner) UsePatternRecords(recs []logfmt.Record) { r.use(r.pattern, recs) }

func (r *Runner) shortTermConfig() synth.Config {
	cfg := synth.ShortTermConfig(r.cfg.Seed, r.cfg.Scale)
	cfg.Obs = r.obsReg
	return cfg
}

// PatternConfig returns the synth configuration of the pattern dataset.
func (r *Runner) PatternConfig() synth.Config {
	cfg := synth.LongTermConfig(r.cfg.Seed+1, 1)
	cfg.Duration = r.cfg.PatternWindow
	cfg.TargetRequests = r.cfg.PatternTarget
	cfg.Domains = 40
	cfg.Obs = r.obsReg
	return cfg
}

// datasetTotals sums the record and byte counts of the shared datasets
// a step declared in its needs — the provenance attributed to that step
// in the run ledger (a step's own outputs are text, so its data volume
// is the data it read).
func (r *Runner) datasetTotals(needs stepNeed) (records, bytes int64) {
	for _, d := range []*dataset{r.short, r.pattern} {
		if needs&d.reads != 0 {
			d.mu.Lock()
			records += int64(len(d.recs))
			bytes += d.bytes
			d.mu.Unlock()
		}
	}
	return records, bytes
}

// out returns w or a discard writer.
func out(w io.Writer) io.Writer {
	if w == nil {
		return io.Discard
	}
	return w
}

// compareRow prints one "paper vs measured" line.
func compareRow(w io.Writer, metric, paper, measured string) {
	fmt.Fprintf(w, "  %-42s paper: %-12s measured: %s\n", metric, paper, measured)
}

func pct(f float64) string { return fmt.Sprintf("%.1f%%", f*100) }
