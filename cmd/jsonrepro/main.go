// Command jsonrepro regenerates every table and figure of the paper in
// one run, printing each alongside the paper's reported values.
//
// Every run emits a run manifest (run-<id>.json) recording the full
// effective configuration, toolchain and VCS revision, the per-step
// ledger, and a final metrics snapshot — the provenance needed to
// reproduce any printed figure bit-for-bit.
//
// Usage:
//
//	jsonrepro                         # laptop-scale defaults
//	jsonrepro -scale 0.01 -x 100      # bigger datasets, paper's x
//	jsonrepro -only fig5,table3
//	jsonrepro -records logs.cdnc      # analyze a captured log instead of synth
//	jsonrepro -j 1                    # one worker
//	jsonrepro -trace                  # per-stage span table after the run
//	jsonrepro -trace-out t.json       # Chrome trace (about:tracing/Perfetto)
//	jsonrepro -span-log spans.jsonl   # machine-readable span log
//	jsonrepro -profile                # CPU+heap pprof bracketing the run
//	jsonrepro -metrics-addr :9090     # scrape /metrics while it runs
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"log/slog"
	"os"
	"os/signal"
	"runtime"
	"strings"
	"syscall"
	"time"

	"repro/internal/experiments"
	"repro/internal/ingest"
	"repro/internal/logfmt"
	"repro/internal/obs"
)

func main() {
	var (
		seed        = flag.Uint64("seed", 42, "seed for all datasets and permutations")
		scale       = flag.Float64("scale", 0.002, "scale of the Table 2 presets")
		target      = flag.Int("pattern-target", 120_000, "records in the §5 pattern dataset")
		window      = flag.Duration("pattern-window", 2*time.Hour, "capture window of the pattern dataset")
		x           = flag.Int("x", 100, "periodicity permutations")
		bin         = flag.Duration("bin", 2*time.Second, "periodicity sampling interval")
		faultRate   = flag.Float64("fault-rate", 0.05, "steady-state origin error rate of the resilience experiment")
		faultSeed   = flag.Uint64("fault-seed", 0, "seed for fault injection and backoff jitter (0 derives it from -seed)")
		jobs        = flag.Int("j", runtime.GOMAXPROCS(0), "worker count for dataset generation and the exhibit steps (output is byte-identical at every count)")
		records     = flag.String("records", "", "load the §4 short-term dataset from this log file (.tsv/.jsonl[.gz] or .cdnc, container detected by magic) instead of synthesizing it")
		only        = flag.String("only", "", "comma-separated subset, run in paper order: "+strings.Join(experiments.Keys(), ","))
		csvDir      = flag.String("csv", "", "also export each exhibit's data series as CSV into this directory (full runs only)")
		metricsAddr = flag.String("metrics-addr", "", "serve /metrics, /readyz, /debug/vars, and /debug/pprof on this address (e.g. :9090) while running")
		trace       = flag.Bool("trace", false, "print a per-stage span table (wall time, records, records/sec) after the run")
		traceOut    = flag.String("trace-out", "", "write the run's span tree as Chrome trace_event JSON to this file (load in about:tracing or ui.perfetto.dev)")
		spanLog     = flag.String("span-log", "", "write the run's span tree as JSONL (one span per line, parent ids intact) to this file")
		manifestDir = flag.String("manifest-dir", "out", "directory for the run-<id>.json manifest (empty disables)")
		profile     = flag.Bool("profile", false, "capture CPU and heap pprof profiles bracketing the run (written next to the manifest)")
		verbose     = flag.Bool("v", false, "log at debug level")
	)
	flag.Parse()
	if *jobs < 1 {
		fmt.Fprintln(os.Stderr, "jsonrepro: -j must be >= 1")
		os.Exit(2)
	}

	// SIGINT/SIGTERM cancels the run at the next step boundary; the
	// partial report still prints, the manifest records the interrupt,
	// and the process exits 0.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	runID := obs.NewRunID()
	logger := newLogger(os.Stderr, runID, *seed, *verbose).Component("jsonrepro")
	reg := obs.NewRegistry()
	tr := obs.NewTrace()
	health := &obs.Health{}

	man := obs.NewManifest("jsonrepro", runID)
	man.Config = map[string]any{
		"seed": *seed, "scale": *scale,
		"pattern_target": *target, "pattern_window": window.String(),
		"permutations": *x, "sample_bin": bin.String(),
		"fault_rate": *faultRate, "fault_seed": *faultSeed,
		"jobs": *jobs, "only": *only,
		"records": *records,
	}

	// finish seals and writes the manifest; it runs on every exit path
	// (completed, interrupted, failed) so a crash log always has its
	// provenance record next to it.
	finish := func(outcome string, rep *experiments.Report) {
		man.Finish(outcome)
		if rep != nil {
			man.Steps = rep.ManifestSteps()
		}
		man.AddMetrics(reg)
		man.AddTrace(tr)
		if *manifestDir == "" {
			return
		}
		path, err := man.WriteFile(*manifestDir)
		if err != nil {
			logger.Error("writing run manifest", "err", err)
			return
		}
		logger.Info("run manifest written", "path", path)
	}
	fail := func(err error) {
		logger.Error("run failed", "err", err)
		finish("failed", nil)
		os.Exit(1)
	}

	if *metricsAddr != "" {
		_, url, err := obs.Serve(*metricsAddr, reg, health)
		if err != nil {
			fail(err)
		}
		logger.Info("admin endpoints up", "url", url,
			"metrics", url+"/metrics", "readyz", url+"/readyz")
	}

	cfg := experiments.Config{
		Seed:          *seed,
		Scale:         *scale,
		PatternTarget: *target,
		PatternWindow: *window,
		Permutations:  *x,
		SampleBin:     *bin,
		FaultRate:     *faultRate,
		FaultSeed:     *faultSeed,
		Jobs:          *jobs,
	}
	r := experiments.NewRunner(cfg)
	r.Instrument(reg, tr)
	r.NotifyReady(health)

	if *records != "" {
		recs, stats, err := loadRecords(ctx, *records, *jobs, reg)
		if err != nil {
			fail(fmt.Errorf("loading -records %s: %w", *records, err))
		}
		r.UseShortTermRecords(recs)
		logger.Info("short-term dataset loaded from file", "path", *records,
			"records", stats.Records, "quarantined", stats.Quarantined,
			"bytes_skipped", stats.BytesSkipped)
	}

	var stopProfiles func() error
	if *profile {
		var err error
		stopProfiles, err = obs.StartProfiles(*manifestDir, runID)
		if err != nil {
			fail(err)
		}
		logger.Info("profiling started", "dir", profileDir(*manifestDir))
	}

	logger.Info("run starting", "jobs", *jobs, "scale", *scale)
	start := time.Now()

	// One path for full runs and -only subsets: the step table decides
	// what a key means, the scheduler runs it.
	keys := experiments.Keys()
	if *only != "" {
		keys = nil
		for _, k := range strings.Split(*only, ",") {
			keys = append(keys, strings.ToLower(strings.TrimSpace(k)))
		}
	}
	report, err := r.Run(ctx, os.Stdout, keys...)
	interrupted := errors.Is(err, context.Canceled)
	switch {
	case interrupted:
		logger.Warn("interrupted: partial report",
			"completed", report.Completed(), "steps", len(report.Steps))
		fmt.Printf("\n== Interrupted: partial report (%d/%d steps) ==\n",
			report.Completed(), len(report.Steps))
		report.WriteStepSummary(os.Stdout)
	case err != nil:
		finishProfiles(stopProfiles, logger)
		fail(err)
	}
	if *csvDir != "" && *only == "" && !interrupted {
		if err := experiments.WriteCSV(*csvDir, report); err != nil {
			fail(err)
		}
		logger.Info("CSV series written", "dir", *csvDir)
	}
	finishProfiles(stopProfiles, logger)

	if *trace {
		fmt.Println("\n== Stage trace ==")
		tr.WriteTable(os.Stdout)
	}
	if *traceOut != "" {
		writeExport(*traceOut, tr.WriteChromeTrace, "chrome trace", logger, fail)
	}
	if *spanLog != "" {
		writeExport(*spanLog, tr.WriteSpanLog, "span log", logger, fail)
	}

	outcome := "completed"
	if interrupted {
		outcome = "interrupted"
	}
	finish(outcome, report)
	logger.Info("run "+outcome, "wall", time.Since(start).Round(time.Millisecond).String())
	fmt.Fprintf(os.Stderr, "\n%s in %s\n", outcome, time.Since(start).Round(time.Millisecond))
}

// loadRecords tolerantly decodes a log file into memory for the
// experiment runner. The container format is detected by magic bytes,
// so a chunk-container file decodes on the parallel per-chunk pipeline
// regardless of its extension; records are copied out of the reused
// decode batches because the runner retains them for the whole run.
func loadRecords(ctx context.Context, path string, jobs int, reg *obs.Registry) ([]logfmt.Record, ingest.Stats, error) {
	src := &ingest.FileSource{Path: path, Ctx: ctx,
		Config: ingest.PipelineConfig{
			Workers: jobs,
			Options: ingest.Options{Metrics: ingest.NewInstrumentation(reg)},
		}}
	var recs []logfmt.Record
	err := src.Each(func(r *logfmt.Record) error {
		recs = append(recs, *r)
		return nil
	})
	return recs, src.LastStats, err
}

// newLogger builds the CLI's structured logger (debug level with -v).
func newLogger(w io.Writer, runID string, seed uint64, verbose bool) *obs.Logger {
	var level slog.Leveler
	if verbose {
		level = slog.LevelDebug
	}
	return obs.NewLogger(w, runID, seed, level)
}

// finishProfiles stops an active profile bracket, logging the outcome.
func finishProfiles(stop func() error, logger *obs.Logger) {
	if stop == nil {
		return
	}
	if err := stop(); err != nil {
		logger.Error("writing profiles", "err", err)
		return
	}
	logger.Info("profiles written")
}

// profileDir names where profiles land for the log line.
func profileDir(dir string) string {
	if dir == "" {
		return "."
	}
	return dir
}

// writeExport writes one trace export file.
func writeExport(path string, write func(io.Writer) error, kind string, logger *obs.Logger, fail func(error)) {
	f, err := os.Create(path)
	if err != nil {
		fail(fmt.Errorf("creating %s: %w", kind, err))
	}
	werr := write(f)
	cerr := f.Close()
	if werr != nil || cerr != nil {
		fail(fmt.Errorf("writing %s to %s: %w", kind, path, errors.Join(werr, cerr)))
	}
	logger.Info(kind+" written", "path", path)
}
