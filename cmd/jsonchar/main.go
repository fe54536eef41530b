// Command jsonchar runs the §4 characterization over a log file (or a
// freshly generated dataset): traffic sources by device (Fig. 3),
// browser vs non-browser shares, request methods, response sizes, and
// the per-category cacheability heatmap (Fig. 4).
//
// Every run emits a run manifest (run-<id>.json) recording the
// effective configuration, toolchain and VCS revision, dead-letter
// counts, and a final metrics snapshot.
//
// Usage:
//
//	jsonchar -i logs.tsv.gz
//	jsonchar -i logs.cdnb -max-error-rate 0.1 -dead-letter bad.jsonl
//	jsonchar -synth -scale 0.002
//	jsonchar -i logs.tsv.gz -j 4      # cap text-format decode workers
//	jsonchar -synth -trace -metrics-addr :9090
//	jsonchar -i logs.tsv.gz -trace-out t.json   # Chrome trace of the ingest stages
//
// File input goes through the tolerant ingest path: malformed records
// are quarantined (optionally to a -dead-letter JSONL file) and the
// run survives as long as the corrupt fraction stays under
// -max-error-rate. SIGINT/SIGTERM stops ingest early but still prints
// the characterization of what was read.
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
	"syscall"
	"time"

	"repro/internal/core"
	"repro/internal/domaincat"
	"repro/internal/ingest"
	"repro/internal/logfmt"
	"repro/internal/obs"
	"repro/internal/rollup"
	"repro/internal/stats"
	"repro/internal/synth"
	"repro/internal/taxonomy"
	"repro/internal/uastring"
)

func main() {
	var (
		in          = flag.String("i", "", "input log file (.tsv/.jsonl/.cdnb[.gz])")
		useSynth    = flag.Bool("synth", false, "characterize a freshly generated short-term dataset")
		scale       = flag.Float64("scale", 0.002, "scale for -synth")
		seed        = flag.Uint64("seed", 42, "seed for -synth")
		jobs        = flag.Int("j", runtime.GOMAXPROCS(0), "decode workers for file ingest of the text formats")
		topApps     = flag.Int("top-apps", 10, "how many applications to list")
		maxErrRate  = flag.Float64("max-error-rate", 0.05, "abort file ingest when more than this fraction of records is corrupt")
		deadLetter  = flag.String("dead-letter", "", "append quarantined record spans to this JSONL file")
		metricsAddr = flag.String("metrics-addr", "", "serve /metrics, /debug/vars, and /debug/pprof on this address (e.g. :9090) while running")
		trace       = flag.Bool("trace", false, "print a per-stage span table after the run")
		traceOut    = flag.String("trace-out", "", "write the run's span tree as Chrome trace_event JSON to this file")
		spanLog     = flag.String("span-log", "", "write the run's span tree as JSONL to this file")
		manifestDir = flag.String("manifest-dir", "out", "directory for the run-<id>.json manifest (empty disables)")
		verbose     = flag.Bool("v", false, "log at debug level")
	)
	flag.Parse()
	if *jobs < 1 {
		fmt.Fprintln(os.Stderr, "jsonchar: -j must be >= 1")
		os.Exit(2)
	}

	// SIGINT/SIGTERM cancels ingest between records; the report over the
	// records read so far still prints and the process exits 0.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	runID := obs.NewRunID()
	var level slog.Leveler
	if *verbose {
		level = slog.LevelDebug
	}
	logger := obs.NewLogger(os.Stderr, runID, *seed, level).Component("jsonchar")
	reg := obs.NewRegistry()
	tr := obs.NewTrace()

	man := obs.NewManifest("jsonchar", runID)
	man.Config = map[string]any{
		"input": *in, "synth": *useSynth, "scale": *scale, "seed": *seed,
		"jobs": *jobs, "max_error_rate": *maxErrRate, "dead_letter": *deadLetter,
	}
	finish := func(outcome string) {
		man.Finish(outcome)
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
		finish("failed")
		os.Exit(1)
	}

	if *metricsAddr != "" {
		_, url, err := obs.Serve(*metricsAddr, reg, nil)
		if err != nil {
			fail(err)
		}
		logger.Info("admin endpoints up", "url", url, "metrics", url+"/metrics")
	}

	// The root span of the run: the ingest pipeline stages (read+split,
	// decode, deliver) attach as children via the context, so a
	// -trace-out export shows the pipeline's overlap.
	sp := tr.Start("ingest + characterize")
	ctx = obs.ContextWithSpan(ctx, sp)

	var src core.Source
	var fileSrc *ingest.FileSource
	switch {
	case *useSynth:
		cfg := synth.ShortTermConfig(*seed, *scale)
		cfg.Obs = reg
		src = core.SynthSource(cfg)
	case *in != "":
		opts := ingest.Options{
			MaxErrorRate: *maxErrRate,
			Metrics:      ingest.NewInstrumentation(reg),
		}
		if *deadLetter != "" {
			dl, err := os.OpenFile(*deadLetter, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
			if err != nil {
				fail(err)
			}
			defer dl.Close()
			opts.DeadLetter = ingest.NewDeadLetter(dl)
			defer opts.DeadLetter.Flush()
		}
		fileSrc = &ingest.FileSource{Path: *in, Ctx: ctx,
			Config: ingest.PipelineConfig{Workers: *jobs, Options: opts}}
		src = fileSrc
	default:
		fmt.Fprintln(os.Stderr, "jsonchar: need -i FILE or -synth")
		os.Exit(2)
	}

	char := taxonomy.NewCharacterization()
	cacheability := taxonomy.NewDomainCacheability(domaincat.NewCatalog())
	hourly := rollup.New(time.Hour)
	fine := rollup.New(10 * time.Minute)
	err := src.Each(func(r *logfmt.Record) error {
		if err := ctx.Err(); err != nil {
			return err
		}
		sp.AddRecords(1)
		sp.AddBytes(r.Bytes)
		char.ObserveAny(r)
		hourly.Observe(r)
		fine.Observe(r)
		if r.IsJSON() {
			cacheability.Observe(r)
		}
		return nil
	})
	sp.End()
	outcome := "completed"
	if errors.Is(err, context.Canceled) {
		outcome = "interrupted"
		logger.Warn("interrupted: reporting partial results")
	} else if err != nil {
		if fileSrc != nil {
			man.DeadLetters = fileSrc.LastStats.Quarantined
		}
		fail(err)
	}
	if fileSrc != nil {
		st := fileSrc.LastStats
		man.DeadLetters = st.Quarantined
		if st.Quarantined > 0 {
			logger.Warn("records quarantined",
				"quarantined", st.Quarantined,
				"total", st.Records+st.Quarantined,
				"error_rate", fmt.Sprintf("%.2f%%", st.ErrorRate()*100),
				"resyncs", st.Resyncs, "bytes_skipped", st.BytesSkipped)
		}
	}
	if char.Total == 0 {
		fail(errors.New("no application/json records in input"))
	}

	fmt.Printf("JSON requests: %d\n\n", char.Total)

	fmt.Println("Figure 2: JSON traffic taxonomy (measured shares in brackets):")
	fmt.Print(taxonomy.Figure2Tree(char))
	fmt.Println()

	fmt.Println("Traffic source (share of JSON requests, Fig. 3):")
	devices := []uastring.DeviceType{uastring.DeviceMobile, uastring.DeviceUnknown,
		uastring.DeviceEmbedded, uastring.DeviceDesktop}
	labels := make([]string, len(devices))
	values := make([]float64, len(devices))
	for i, d := range devices {
		labels[i] = d.String()
		values[i] = char.DeviceShare(d)
	}
	fmt.Print(stats.BarChart(labels, values, 50))
	fmt.Printf("non-browser traffic: %s   mobile-browser: %s\n\n",
		stats.Percent(char.NonBrowserShare()), stats.Percent(char.MobileBrowserShare()))

	fmt.Printf("Top applications:\n")
	for _, kv := range char.Apps.TopK(*topApps) {
		fmt.Printf("  %-24s %d\n", kv.Key, kv.Count)
	}
	fmt.Println()

	fmt.Println("Request type:")
	fmt.Printf("  GET (download): %s   POST of remainder: %s\n\n",
		stats.Percent(char.GETShare()), stats.Percent(char.POSTShareOfRest()))

	fmt.Println("Response type:")
	j50, j75, h50, h75 := char.SizeQuantiles()
	fmt.Printf("  JSON size p50/p75: %.0f/%.0f B", j50, j75)
	if h50 > 0 {
		fmt.Printf("   (HTML: %.0f/%.0f B; JSON %s and %s smaller)",
			h50, h75, stats.Percent(1-j50/h50), stats.Percent(1-j75/h75))
	}
	fmt.Println()
	fmt.Printf("  uncacheable: %s   hit ratio on cacheable: %s\n\n",
		stats.Percent(char.UncacheableShare()), stats.Percent(char.HitRatio()))

	// Volume profile: hourly buckets for day-scale captures, 10-minute
	// buckets for shorter ones.
	series := hourly.Series("application/json")
	label := "Hourly"
	if len(series) < 3 {
		series = fine.Series("application/json")
		label = "10-minute"
	}
	if len(series) > 1 && len(series) <= 150 {
		fmt.Printf("%s JSON request volume:\n", label)
		labels := make([]string, len(series))
		values := make([]float64, len(series))
		for i, p := range series {
			labels[i] = p.Start.Format("15:04")
			values[i] = float64(p.Requests)
		}
		fmt.Print(stats.BarChart(labels, values, 40))
		fmt.Println()
	}

	never, always, mixed := cacheability.PolicyShares()
	fmt.Printf("Domain cacheability (%d domains): never %s, always %s, mixed %s\n",
		cacheability.NumDomains(), stats.Percent(never), stats.Percent(always), stats.Percent(mixed))
	fmt.Println("\nFigure 4 heatmap (rows: category, cols: cacheable share 0-100%):")
	fmt.Print(stats.Heatmap(cacheability.Heatmap(10)))

	if *trace {
		fmt.Println("\nStage trace:")
		tr.WriteTable(os.Stdout)
	}
	if *traceOut != "" {
		writeExport(*traceOut, tr.WriteChromeTrace, "chrome trace", logger, fail)
	}
	if *spanLog != "" {
		writeExport(*spanLog, tr.WriteSpanLog, "span log", logger, fail)
	}
	finish(outcome)
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
