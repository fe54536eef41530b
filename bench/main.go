// Command bench is the repository's one ruler: it assembles both
// products — the batch pipeline (synth → .cdnc → ingest → experiments)
// and the serving stack (replay → fleet → edge (+defend, +livechar) →
// origin) — in one process from the layers' public functions, runs one
// of four named workloads, checks the outputs, and prints every metric
// by name. README.md has the workload and metric tables.
//
// One workload, as BENCHMARK.json's command runs it:
//
//	bash bench/run.sh --workload serve-hot --seed 42 --seconds 15 --trace 0
//
// Every workload, each in a fresh child process, with a traced run:
//
//	bash bench/run.sh --trace 1
//
// Repeatability of the end-to-end metrics over N full sets:
//
//	bash bench/run.sh --calibrate 5
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"syscall"
)

// commit is stamped by run.sh (-ldflags -X) when the checkout is a git
// repository.
var commit = "unknown"

// options selects and sizes one run.
type options struct {
	workload string
	seed     uint64
	seconds  float64
	trace    bool
	// short shrinks every workload to smoke-test size and bounds each
	// phase by a request or pass count where the full size uses time, so
	// that count metrics repeat exactly.
	short  bool
	outDir string
}

// workloads in the order they are listed in BENCHMARK.json.
var workloads = []struct {
	name  string
	spans int // capacity of a traced run's span recorder
	fn    func(context.Context, *run) error
}{
	{"repro-batch", phaseSpans, reproBatch},
	{"log-archive", phaseSpans, logArchive},
	{"serve-hot", requestSpans, func(ctx context.Context, r *run) error { return serve(ctx, r, false) }},
	{"serve-hostile", requestSpans, func(ctx context.Context, r *run) error { return serve(ctx, r, true) }},
}

// parallelism is P, the one width used everywhere a layer takes one:
// experiment jobs, ingest workers, closed-loop clients, replay
// concurrency and client connections.
func parallelism() int {
	if n := runtime.NumCPU(); n < 4 {
		return n
	}
	return 4
}

// run is the state one workload run accumulates.
type run struct {
	opt options
	p   int
	rec *recorder // nil unless tracing
	m   metricSet
	tmp string // scratch directory inside the checkout, removed at exit

	setups            []float64 // seconds, one per set-up
	synth             synthMeter
	attempted, failed int64
	problems          []string
}

// check records a failed correctness check; the run then reports
// correct=false and exits non-zero.
func (r *run) check(ok bool, format string, args ...any) {
	if !ok {
		r.problems = append(r.problems, fmt.Sprintf(format, args...))
	}
}

// subSeed is the seed of the k-th corpus of a run. Each run sets up
// several corpora and spreads its timed work over them, so that one
// seed's luck — a few more periodic flows, a slightly hotter cache —
// averages out of the reported numbers.
func (r *run) subSeed(k int) uint64 { return r.opt.seed*16 + uint64(k) + 1 }

// corpora is how many times a run sets up.
func (r *run) corpora() int {
	if r.opt.short {
		return 1
	}
	return 3
}

// runWorkload runs one workload in this process.
func runWorkload(ctx context.Context, opt options) (outcome, []string, error) {
	var fn func(context.Context, *run) error
	var spans int
	for _, w := range workloads {
		if w.name == opt.workload {
			fn, spans = w.fn, w.spans
		}
	}
	if fn == nil {
		return outcome{}, nil, fmt.Errorf("unknown workload %q", opt.workload)
	}
	if err := os.MkdirAll(opt.outDir, 0o755); err != nil {
		return outcome{}, nil, err
	}
	tmp, err := os.MkdirTemp(opt.outDir, "tmp-")
	if err != nil {
		return outcome{}, nil, err
	}
	defer os.RemoveAll(tmp)

	r := &run{opt: opt, p: parallelism(), m: metricSet{}, tmp: tmp}
	if opt.trace {
		r.rec = newRecorder(serveNodes, spans)
	}
	if err := fn(ctx, r); err != nil {
		return outcome{}, nil, err
	}
	r.m.set("setup_s", median(r.setups))
	r.m.set("peak_rss_mb", peakRSSMiB())
	if opt.trace {
		spans := r.rec.recorded()
		r.m.set("bench.spans", float64(len(spans)))
		r.m.set("bench.spans_dropped", float64(r.rec.dropped.Load()))
		r.m.set("bench.fail_ratio", ratio(float64(r.failed), float64(r.attempted)))
		path := filepath.Join(opt.outDir, fmt.Sprintf("trace-%s-%d.json", opt.workload, opt.seed))
		if err := writeChrome(path, spans); err != nil {
			return outcome{}, nil, err
		}
	}

	out := outcome{
		Correct:   len(r.problems) == 0,
		Attempted: r.attempted,
		Failed:    r.failed,
		Metrics:   map[string]metric{},
	}
	for _, d := range declared(opt.trace) {
		v, ok := r.m[d.name]
		if !ok && !opt.trace {
			return outcome{}, nil, fmt.Errorf("workload %s did not measure %s", opt.workload, d.name)
		}
		out.Metrics[d.name] = metric{Value: v, Unit: d.unit}
	}
	return out, r.problems, nil
}

// peakRSSMiB is this process's high-water resident set. A run is one
// workload in one process, so it is that workload's peak.
func peakRSSMiB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports KiB
}

// environment is recorded beside every result.
func environment(seed uint64) map[string]any {
	return map[string]any{
		"nproc":      runtime.NumCPU(),
		"gomaxprocs": runtime.GOMAXPROCS(0),
		"p":          parallelism(),
		"go":         runtime.Version(),
		"commit":     commit,
		"seed":       seed,
		"network":    "loopback, in-process origin",
	}
}

func main() {
	var opt options
	var trace, calibrate int
	flag.StringVar(&opt.workload, "workload", "", "workload to run in this process; empty runs every workload, each in a child process")
	flag.Uint64Var(&opt.seed, "seed", 42, "seed of every generated input")
	flag.Float64Var(&opt.seconds, "seconds", 15, "how long the timed part of a workload measures")
	flag.IntVar(&trace, "trace", 0, "1 records spans and prints the per-layer metrics; 0 prints the end-to-end metrics")
	flag.BoolVar(&opt.short, "short", false, "smoke-test sizes")
	flag.StringVar(&opt.outDir, "out", filepath.Join("out", "bench"), "directory for trace files, result.json and scratch files")
	flag.IntVar(&calibrate, "calibrate", 0, "run the full set N times and report each end-to-end metric's spread against its bound")
	flag.Parse()
	opt.trace = trace != 0
	if flag.NArg() > 0 || opt.seconds <= 0 || calibrate < 0 {
		flag.Usage()
		os.Exit(2)
	}

	if opt.workload == "" {
		os.Exit(runAll(opt, calibrate))
	}
	fmt.Printf("# %s %v\n", opt.workload, environment(opt.seed))
	out, problems, err := runWorkload(context.Background(), opt)
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(1)
	}
	for _, p := range problems {
		fmt.Fprintln(os.Stderr, "bench: check failed:", p)
	}
	if err := out.print(os.Stdout, declared(opt.trace)); err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(1)
	}
	if !out.Correct {
		os.Exit(1)
	}
}
