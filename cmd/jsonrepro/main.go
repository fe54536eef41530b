// Command jsonrepro regenerates every table and figure of the paper in
// one run, printing each alongside the paper's reported values.
//
// The exhibits read two datasets: the §4 short-term one (Table 2,
// Fig. 2–4) and the §5 pattern one (Table 2, Fig. 5/6, Table 3, prefetch,
// deprioritize, anomaly). Both are synthesized from -seed, -scale and
// -pattern-*, unless -records names a captured log: that one log is then
// both datasets, so every dataset-driven exhibit analyzes it. The §4
// exhibits are single-pass observers, so -records F -only
// table2,fig3,fig4 streams F once and never holds it in memory. Fig. 1,
// regional, resilience and adversarial always generate their own inputs.
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
//	jsonrepro -records logs.cdnc      # the dataset exhibits on a captured log
//	jsonrepro -records logs.cdnc -only table2,fig3,fig4   # §4 alone, streamed
//	jsonrepro -j 1                    # one worker
//	jsonrepro -trace                  # per-stage span table after the run
//	jsonrepro -trace-out t.json       # Chrome trace (about:tracing/Perfetto)
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
		records     = flag.String("records", "", "analyze this log file (.tsv/.jsonl[.gz] or .cdnc, container detected by magic) as both datasets instead of synthesizing them; -scale and -pattern-* then go unused")
		only        = flag.String("only", "", "comma-separated subset, run in paper order: "+strings.Join(experiments.Keys(), ","))
		csvDir      = flag.String("csv", "", "also export each exhibit's data series as CSV into this directory (full runs only)")
		metricsAddr = flag.String("metrics-addr", "", "serve /metrics, /readyz, /debug/vars, and /debug/pprof on this address (e.g. :9090) while running")
		trace       = flag.Bool("trace", false, "print a per-stage span table (wall time, records, records/sec) after the run")
		traceOut    = flag.String("trace-out", "", "write the run's span tree as Chrome trace_event JSON to this file (load in about:tracing or ui.perfetto.dev)")
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
	var report *experiments.Report
	var err error
	if *records == "" {
		report, err = r.Run(ctx, os.Stdout, keys...)
	} else {
		var st ingest.Stats
		report, st, err = r.RunFile(ctx, os.Stdout, *records, keys...)
		logger.Info("datasets loaded from file", "path", *records,
			"records", st.Records, "quarantined", st.Quarantined,
			"bytes_skipped", st.BytesSkipped)
	}
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
		if err := tr.WriteChromeTraceFile(*traceOut); err != nil {
			fail(err)
		}
		logger.Info("chrome trace written", "path", *traceOut)
	}

	outcome := "completed"
	if interrupted {
		outcome = "interrupted"
	}
	finish(outcome, report)
	logger.Info("run "+outcome, "wall", time.Since(start).Round(time.Millisecond).String())
	fmt.Fprintf(os.Stderr, "\n%s in %s\n", outcome, time.Since(start).Round(time.Millisecond))
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
