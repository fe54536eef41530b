// Command jsonchar runs the paper's analyses over one edge log. Bare, it
// runs the §4 characterization of a log file (or a freshly generated
// dataset): traffic sources by device (Fig. 3), browser vs non-browser
// shares, request methods, response sizes, and the per-category
// cacheability heatmap (Fig. 4). Its subcommands run the §5 analyses:
//
//	period    §5.1 periodicity: the Fig. 5 period histogram, the Fig. 6 CDF
//	predict   §5.2 backoff ngram prediction: Table 3's accuracy grid
//	anomaly   §5.2 application: the requests the clustered model finds least likely
//	prefetch  §5.2 implication: edge hit ratio with and without ngram prefetching
//
// Every characterization run emits a run manifest (run-<id>.json)
// recording the effective configuration, toolchain and VCS revision,
// dead-letter counts, and a final metrics snapshot.
//
// Usage:
//
//	jsonchar -i logs.tsv.gz
//	jsonchar -i logs.cdnc -max-error-rate 0.1 -dead-letter bad.jsonl
//	jsonchar -synth -scale 0.002
//	jsonchar -i logs.tsv.gz -j 4      # cap decode workers
//	jsonchar -synth -trace -metrics-addr :9090
//	jsonchar -i logs.tsv.gz -trace-out t.json   # Chrome trace of the ingest stages
//	jsonchar period -i pattern.tsv.gz -x 100 -bin 1s -list
//	jsonchar predict -i pattern.tsv.gz -n 5 -k 1,5,10,20 -test-frac 0.3
//	jsonchar anomaly -i pattern.tsv.gz -scan live.tsv -threshold 1e-4 -top 20
//	jsonchar prefetch -i pattern.tsv.gz -k 1,2,5 -cache-mb 128 -ttl 2m
//
// File input, bare or under any subcommand, goes through the tolerant
// ingest path and its flags (-i, -j, -max-error-rate, -dead-letter):
// malformed records are quarantined (optionally to a -dead-letter JSONL
// file) and the run survives as long as the corrupt fraction stays
// under -max-error-rate. SIGINT/SIGTERM stops the characterization's
// ingest early but still prints the characterization of what was read.
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

// analyses are the subcommands. Each registers its own flags on fs, next
// to the input flags already there, and parses args with in.parse.
var analyses = map[string]func(fs *flag.FlagSet, in *input, args []string) error{
	"period":   runPeriod,
	"predict":  runPredict,
	"anomaly":  runAnomaly,
	"prefetch": runPrefetch,
}

func main() {
	if len(os.Args) > 1 {
		if run, ok := analyses[os.Args[1]]; ok {
			fs := flag.NewFlagSet("jsonchar "+os.Args[1], flag.ExitOnError)
			in := addInput(fs)
			in.log = obs.NewLogger(os.Stderr, obs.NewRunID(), 0, nil).Component(fs.Name())
			if err := run(fs, in, os.Args[2:]); err != nil {
				fmt.Fprintf(os.Stderr, "%s: %v\n", fs.Name(), err)
				os.Exit(1)
			}
			return
		}
	}
	characterize()
}

// characterize is the bare command: the §4 characterization.
func characterize() {
	in := addInput(flag.CommandLine)
	var (
		useSynth    = flag.Bool("synth", false, "characterize a freshly generated short-term dataset")
		scale       = flag.Float64("scale", 0.002, "scale for -synth")
		seed        = flag.Uint64("seed", 42, "seed for -synth")
		topApps     = flag.Int("top-apps", 10, "how many applications to list")
		metricsAddr = flag.String("metrics-addr", "", "serve /metrics, /debug/vars, and /debug/pprof on this address (e.g. :9090) while running")
		trace       = flag.Bool("trace", false, "print a per-stage span table after the run")
		traceOut    = flag.String("trace-out", "", "write the run's span tree as Chrome trace_event JSON to this file")
		spanLog     = flag.String("span-log", "", "write the run's span tree as JSONL to this file")
		manifestDir = flag.String("manifest-dir", "out", "directory for the run-<id>.json manifest (empty disables)")
		verbose     = flag.Bool("v", false, "log at debug level")
	)
	in.parse(os.Args[1:])
	if !*useSynth && *in.path == "" {
		usage(flag.CommandLine, "need -i FILE or -synth")
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
	in.log, in.reg = logger, reg
	tr := obs.NewTrace()

	man := obs.NewManifest("jsonchar", runID)
	man.Config = map[string]any{
		"input": *in.path, "synth": *useSynth, "scale": *scale, "seed": *seed,
		"jobs": *in.jobs, "max_error_rate": *in.maxErrRate, "dead_letter": *in.deadLetter,
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

	char := taxonomy.NewCharacterization()
	cacheability := taxonomy.NewDomainCacheability(domaincat.NewCatalog())
	hourly := rollup.New(time.Hour)
	fine := rollup.New(10 * time.Minute)
	observe := func(r *logfmt.Record) {
		sp.AddRecords(1)
		sp.AddBytes(r.Bytes)
		char.ObserveAny(r)
		hourly.Observe(r)
		fine.Observe(r)
		if r.IsJSON() {
			cacheability.Observe(r)
		}
	}
	var err error
	if *useSynth {
		cfg := synth.ShortTermConfig(*seed, *scale)
		cfg.Obs = reg
		err = synth.Generate(cfg, func(r *logfmt.Record) error {
			observe(r)
			return ctx.Err()
		})
	} else {
		var st ingest.Stats
		st, err = in.read(ctx, *in.path, observe)
		man.DeadLetters = st.Quarantined
	}
	sp.End()
	outcome := "completed"
	if errors.Is(err, context.Canceled) {
		outcome = "interrupted"
		logger.Warn("interrupted: reporting partial results")
	} else if err != nil {
		fail(err)
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

// input is the log file an analysis reads and the flags that govern how:
// the bare command and every subcommand register them once, on their
// own flag set, and read through the one tolerant ingest path.
type input struct {
	fs               *flag.FlagSet
	path, deadLetter *string
	jobs             *int
	maxErrRate       *float64
	log              *obs.Logger   // receives the quarantine summary
	reg              *obs.Registry // receives the ingest metrics; nil for none
}

// addInput registers the input flags on fs.
func addInput(fs *flag.FlagSet) *input {
	return &input{
		fs:         fs,
		path:       fs.String("i", "", "input log file (.tsv/.jsonl[.gz] or .cdnc)"),
		jobs:       fs.Int("j", runtime.GOMAXPROCS(0), "decode workers for file ingest"),
		maxErrRate: fs.Float64("max-error-rate", 0.05, "abort file ingest when more than this fraction of records is corrupt"),
		deadLetter: fs.String("dead-letter", "", "append quarantined record spans to this JSONL file"),
	}
}

// parse parses args into the input's flag set and checks the input
// flags.
func (in *input) parse(args []string) {
	in.fs.Parse(args)
	if *in.jobs < 1 {
		usage(in.fs, "-j must be >= 1")
	}
}

// read streams the log file at path into fn. Malformed records are
// quarantined, to the -dead-letter file when one is set, and summarized
// on the input's logger; the read fails once they exceed
// -max-error-rate. It returns the read's accounting even on error.
func (in *input) read(ctx context.Context, path string, fn func(*logfmt.Record)) (ingest.Stats, error) {
	if path == "" {
		usage(in.fs, "need -i FILE")
	}
	opts := ingest.Options{MaxErrorRate: *in.maxErrRate, Metrics: ingest.NewInstrumentation(in.reg)}
	var dl *os.File
	if *in.deadLetter != "" {
		var err error
		if dl, err = os.OpenFile(*in.deadLetter, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644); err != nil {
			return ingest.Stats{}, err
		}
		opts.DeadLetter = ingest.NewDeadLetter(dl)
	}
	src := &ingest.FileSource{Path: path, Ctx: ctx,
		Config: ingest.PipelineConfig{Workers: *in.jobs, Options: opts}}
	err := src.Each(func(r *logfmt.Record) error {
		fn(r)
		return nil
	})
	if dl != nil {
		err = errors.Join(err, opts.DeadLetter.Flush(), dl.Close())
	}
	if st := src.LastStats; st.Quarantined > 0 {
		in.log.Warn("records quarantined", "path", path,
			"quarantined", st.Quarantined,
			"total", st.Records+st.Quarantined,
			"error_rate", fmt.Sprintf("%.2f%%", st.ErrorRate()*100),
			"resyncs", st.Resyncs, "bytes_skipped", st.BytesSkipped)
	}
	return src.LastStats, err
}

// usage reports a command-line mistake as the flag package reports a
// bad flag: the message, the flags, and exit status 2.
func usage(fs *flag.FlagSet, msg string) {
	fmt.Fprintf(fs.Output(), "%s: %s\n", fs.Name(), msg)
	fs.Usage()
	os.Exit(2)
}
