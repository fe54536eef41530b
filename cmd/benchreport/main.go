// Command benchreport runs the repo's benchmark suite and writes a
// machine-readable JSON baseline (BENCH_*.json) so perf regressions
// show up as diffs rather than anecdotes.
//
// It shells out to `go test -bench` over the performance-critical
// packages — synth generation, the experiment scheduler, n-gram
// prediction, the DSP kernels, the log codecs, the ingest pipeline, the
// user-agent classifier, the taxonomy observers, and the edge cache —
// parses the standard benchmark output lines, and emits one
// JSON document with ns/op, B/op, allocs/op, and any custom
// b.ReportMetric units (records/s, disk-B/rec) per benchmark, plus two
// derived headlines: the sequential-vs-parallel RunAll speedup and the
// chunk-container decode comparison (records/sec and bytes-per-record
// vs the binary baseline, gated by -min-chunk-speedup and
// -max-chunk-bytes-ratio).
//
// Usage:
//
//	go run ./cmd/benchreport -count 3 -out BENCH_1.json
//	go run ./cmd/benchreport -benchtime 0.5s -bench 'RunAll' -out -
//	go run ./cmd/benchreport -count 3 -replay out/replay-slo.json -out BENCH_1.json
package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"runtime"
	"strconv"
	"strings"
	"time"

	"repro/internal/replay"
)

// packages are the benchmark targets, in report order.
var packages = []string{
	"./internal/synth",
	"./internal/experiments",
	"./internal/ngram",
	"./internal/dsp",
	"./internal/logfmt",
	"./internal/ingest",
	"./internal/livechar",
	"./internal/uastring",
	"./internal/taxonomy",
	"./internal/edge",
}

// Benchmark is one parsed `go test -bench` result line. Repeated
// -count runs of the same benchmark appear as separate entries.
type Benchmark struct {
	Package string  `json:"package"`
	Name    string  `json:"name"`
	Iters   int64   `json:"iterations"`
	NsPerOp float64 `json:"ns_per_op"`
	BPerOp  float64 `json:"bytes_per_op,omitempty"`
	Allocs  float64 `json:"allocs_per_op,omitempty"`
	// Extra holds custom b.ReportMetric units (e.g. "records/s",
	// "disk-B/rec" from the decode benchmarks), keyed by unit.
	Extra map[string]float64 `json:"extra,omitempty"`
}

// Report is the JSON document benchreport emits.
type Report struct {
	Schema     string      `json:"schema"`
	GoVersion  string      `json:"go_version"`
	GOOS       string      `json:"goos"`
	GOARCH     string      `json:"goarch"`
	GOMAXPROCS int         `json:"gomaxprocs"`
	Count      int         `json:"count"`
	BenchTime  string      `json:"benchtime"`
	Generated  string      `json:"generated"`
	Benchmarks []Benchmark `json:"benchmarks"`

	// Derived RunAll numbers (means over the -count runs); the speedup
	// is the headline the scheduler work is judged by. On a single-core
	// runner it sits near 1.0 — regenerate on a multi-core machine.
	RunAllSequentialNs float64 `json:"runall_sequential_ns,omitempty"`
	RunAllParallelNs   float64 `json:"runall_parallel_ns,omitempty"`
	RunAllSpeedup      float64 `json:"runall_speedup,omitempty"`

	// ChunkDecode compares the chunk-container decode path against the
	// sequential binary baseline (means over the -count runs) — the
	// numbers the log-container work is judged by. Records/sec uses the
	// raw codec (decode cost without decompression); bytes-per-record
	// uses flate (what jsongen writes by default).
	ChunkDecode *DecodeSummary `json:"chunk_decode,omitempty"`

	// LiveChar compares the edge serve path with the live
	// characterization tap attached against the plain path — the cost
	// of -livechar, gated by -max-livechar-overhead. Like the RunAll
	// speedup, only meaningful on a multi-core runner: at GOMAXPROCS=1
	// the tap's consumer cannot overlap the request path and the
	// measurement is the tap's entire CPU cost, not the serve latency.
	LiveChar *LiveCharSummary `json:"livechar,omitempty"`

	// Baseline and Deltas are set when the run compared against a prior
	// report (-baseline): one Delta per benchmark present in both.
	Baseline string  `json:"baseline,omitempty"`
	Deltas   []Delta `json:"deltas,omitempty"`

	// Replay folds the headline numbers from a jsonreplay report
	// (-replay), putting end-to-end load-harness results next to the
	// micro-benchmarks in one baseline document.
	Replay *ReplaySummary `json:"replay,omitempty"`
}

// ReplaySummary is the end-to-end slice of a replay report: throughput,
// the coordinated-omission-safe tail, and the error budget.
type ReplaySummary struct {
	Source       string  `json:"source"`
	RunID        string  `json:"run_id,omitempty"`
	AchievedRPS  float64 `json:"achieved_rps"`
	OfferedRPS   float64 `json:"offered_rps,omitempty"`
	IntendedP50  float64 `json:"intended_p50_ms"`
	IntendedP99  float64 `json:"intended_p99_ms"`
	IntendedP999 float64 `json:"intended_p999_ms"`
	ServiceP99   float64 `json:"service_p99_ms"`
	ErrorRate    float64 `json:"error_rate"`
	SLOPass      *bool   `json:"slo_pass,omitempty"`
}

// LiveCharSummary is the derived edge-path cost of the live
// characterization tap.
type LiveCharSummary struct {
	EdgeBaselineNs float64 `json:"edge_baseline_ns"`
	EdgeLiveCharNs float64 `json:"edge_livechar_ns"`
	// Overhead is the fractional serve-path slowdown with the tap on
	// (0.03 = 3% slower).
	Overhead float64 `json:"overhead"`
	// DropRate is the tap's shed fraction during the benchmark — a low
	// Overhead bought by dropping events would show up here.
	DropRate float64 `json:"drop_rate"`
}

// DecodeSummary is the derived cross-format decode comparison.
type DecodeSummary struct {
	BinarySeqRecordsPerSec  float64 `json:"binary_seq_records_per_sec"`
	ChunkSeqRecordsPerSec   float64 `json:"chunk_seq_records_per_sec"`
	ChunkParRecordsPerSec   float64 `json:"chunk_par_records_per_sec"`
	ChunkParSpeedupVsBinary float64 `json:"chunk_par_speedup_vs_binary"`
	BinaryBytesPerRecord    float64 `json:"binary_bytes_per_record"`
	ChunkBytesPerRecord     float64 `json:"chunk_bytes_per_record"`
	ChunkBytesRatio         float64 `json:"chunk_bytes_ratio"`
}

func main() {
	var (
		count      = flag.Int("count", 3, "benchmark repetitions (go test -count)")
		benchtime  = flag.String("benchtime", "", "per-benchmark budget (go test -benchtime), e.g. 0.5s or 10x")
		bench      = flag.String("bench", ".", "benchmark name filter (go test -bench)")
		out        = flag.String("out", "BENCH_1.json", "output file, or - for stdout")
		baseline   = flag.String("baseline", "", "compare mean ns/op against this prior benchreport JSON and exit non-zero on regressions")
		maxRegress = flag.Float64("max-regress", 0.20, "allowed fractional ns/op regression against -baseline (0.20 = 20% slower)")
		replayPath = flag.String("replay", "", "fold the headline numbers from this jsonreplay report (replay-*.json) into the output; skipped with a notice if missing")

		minSpeedup  = flag.Float64("min-chunk-speedup", 0, "fail unless parallel chunk decode records/sec is at least this multiple of the sequential binary reader (0 disables; gate skipped when the decode benchmarks were filtered out)")
		maxSizeRate = flag.Float64("max-chunk-bytes-ratio", 0, "fail unless compressed chunk bytes-per-record is at most this fraction of the binary format's (0 disables; gate skipped when the decode benchmarks were filtered out)")

		maxCharOverhead = flag.Float64("max-livechar-overhead", 0, "fail if the live-characterization tap slows the edge serve path by more than this fraction (0 disables; gate skipped at GOMAXPROCS=1, where the tap's consumer cannot overlap the request path, and when the edge benchmarks were filtered out)")
	)
	flag.Parse()
	if *count < 1 {
		fmt.Fprintln(os.Stderr, "benchreport: -count must be >= 1")
		os.Exit(2)
	}

	rep := Report{
		Schema:     "repro/benchreport/v1",
		GoVersion:  runtime.Version(),
		GOOS:       runtime.GOOS,
		GOARCH:     runtime.GOARCH,
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		Count:      *count,
		BenchTime:  *benchtime,
		Generated:  time.Now().UTC().Format(time.RFC3339),
	}

	for _, pkg := range packages {
		args := []string{"test", "-run", "^$", "-bench", *bench, "-benchmem",
			"-count", strconv.Itoa(*count)}
		if *benchtime != "" {
			args = append(args, "-benchtime", *benchtime)
		}
		args = append(args, pkg)
		fmt.Fprintf(os.Stderr, "benchreport: go %s\n", strings.Join(args, " "))
		cmd := exec.Command("go", args...)
		var buf bytes.Buffer
		cmd.Stdout = &buf
		cmd.Stderr = os.Stderr
		if err := cmd.Run(); err != nil {
			fmt.Fprintf(os.Stderr, "benchreport: %s: %v\n%s", pkg, err, buf.String())
			os.Exit(1)
		}
		rep.Benchmarks = append(rep.Benchmarks, parseBench(pkg, buf.String())...)
	}

	seq := meanNs(rep.Benchmarks, "BenchmarkRunAllSequential")
	par := meanNs(rep.Benchmarks, "BenchmarkRunAllParallel")
	rep.RunAllSequentialNs = seq
	rep.RunAllParallelNs = par
	if seq > 0 && par > 0 {
		rep.RunAllSpeedup = seq / par
	}

	rep.ChunkDecode = chunkDecodeSummary(rep.Benchmarks)
	rep.LiveChar = liveCharSummary(rep.Benchmarks)

	if *replayPath != "" {
		sum, err := foldReplay(*replayPath)
		switch {
		case err != nil && os.IsNotExist(err):
			// A missing replay report is advisory, not fatal: bench runs
			// predate slo-check and must keep working without one.
			fmt.Fprintf(os.Stderr, "benchreport: no replay report at %s; skipping fold\n", *replayPath)
		case err != nil:
			fmt.Fprintf(os.Stderr, "benchreport: replay: %v\n", err)
			os.Exit(1)
		default:
			rep.Replay = sum
			fmt.Fprintf(os.Stderr, "benchreport: folded %s (%.0f rps, intended p99 %.1fms, err %.2f%%)\n",
				*replayPath, sum.AchievedRPS, sum.IntendedP99, sum.ErrorRate*100)
		}
	}

	var basRep *Report
	if *baseline != "" {
		var err error
		basRep, err = readBaseline(*baseline)
		if err != nil {
			fmt.Fprintf(os.Stderr, "benchreport: baseline: %v\n", err)
			os.Exit(1)
		}
		rep.Baseline = *baseline
		rep.Deltas = compareBenchmarks(basRep.Benchmarks, rep.Benchmarks)
	}

	data, err := json.MarshalIndent(&rep, "", "  ")
	if err != nil {
		fmt.Fprintf(os.Stderr, "benchreport: %v\n", err)
		os.Exit(1)
	}
	data = append(data, '\n')
	if *out == "-" {
		os.Stdout.Write(data)
	} else {
		if err := os.WriteFile(*out, data, 0o644); err != nil {
			fmt.Fprintf(os.Stderr, "benchreport: %v\n", err)
			os.Exit(1)
		}
		fmt.Fprintf(os.Stderr, "benchreport: wrote %d benchmarks to %s (runall speedup %.2fx at GOMAXPROCS=%d)\n",
			len(rep.Benchmarks), *out, rep.RunAllSpeedup, rep.GOMAXPROCS)
	}

	// The regression gate: any benchmark whose mean ns/op exceeds the
	// baseline by more than -max-regress fails the run.
	if basRep != nil {
		writeDeltaSummary(rep.Deltas, *maxRegress)
		if bad := regressions(rep.Deltas, *maxRegress); len(bad) > 0 {
			fmt.Fprintf(os.Stderr, "benchreport: FAIL: %d of %d benchmarks regressed more than %.0f%% vs %s\n",
				len(bad), len(rep.Deltas), *maxRegress*100, *baseline)
			os.Exit(1)
		}
		fmt.Fprintf(os.Stderr, "benchreport: ok: %d benchmarks within %.0f%% of %s\n",
			len(rep.Deltas), *maxRegress*100, *baseline)
	}

	// The chunk-container gates: absolute floors on the decode summary
	// rather than deltas, so a fresh machine with no baseline still
	// enforces the container's reason to exist.
	if cd := rep.ChunkDecode; cd != nil {
		fmt.Fprintf(os.Stderr, "benchreport: chunk decode: par %.2fx binary (%.2fM vs %.2fM rec/s), %.1f B/rec = %.3fx binary\n",
			cd.ChunkParSpeedupVsBinary, cd.ChunkParRecordsPerSec/1e6,
			cd.BinarySeqRecordsPerSec/1e6, cd.ChunkBytesPerRecord, cd.ChunkBytesRatio)
		if *minSpeedup > 0 && cd.ChunkParSpeedupVsBinary < *minSpeedup {
			fmt.Fprintf(os.Stderr, "benchreport: FAIL: parallel chunk decode %.2fx binary, want >= %.2fx\n",
				cd.ChunkParSpeedupVsBinary, *minSpeedup)
			os.Exit(1)
		}
		if *maxSizeRate > 0 && cd.ChunkBytesRatio > *maxSizeRate {
			fmt.Fprintf(os.Stderr, "benchreport: FAIL: chunk bytes-per-record %.3fx binary, want <= %.3fx\n",
				cd.ChunkBytesRatio, *maxSizeRate)
			os.Exit(1)
		}
	} else if *minSpeedup > 0 || *maxSizeRate > 0 {
		fmt.Fprintln(os.Stderr, "benchreport: chunk decode benchmarks absent; skipping chunk gates")
	}

	// The livechar gate: the tap must not slow the edge serve path by
	// more than -max-livechar-overhead. The comparison needs a spare
	// core for the tap's consumer, so at GOMAXPROCS=1 the number is
	// reported but not gated (same caveat as the RunAll speedup).
	if lc := rep.LiveChar; lc != nil {
		fmt.Fprintf(os.Stderr, "benchreport: livechar tap: edge %.0f -> %.0f ns/op (%+.1f%%), drop rate %.3f\n",
			lc.EdgeBaselineNs, lc.EdgeLiveCharNs, lc.Overhead*100, lc.DropRate)
		if *maxCharOverhead > 0 {
			switch {
			case rep.GOMAXPROCS == 1:
				fmt.Fprintln(os.Stderr, "benchreport: single-core runner; skipping livechar overhead gate (re-run on a multi-core machine to gate)")
			case lc.Overhead > *maxCharOverhead:
				fmt.Fprintf(os.Stderr, "benchreport: FAIL: livechar tap adds %.1f%% to the edge path, want <= %.1f%%\n",
					lc.Overhead*100, *maxCharOverhead*100)
				os.Exit(1)
			}
		}
	} else if *maxCharOverhead > 0 {
		fmt.Fprintln(os.Stderr, "benchreport: edge livechar benchmarks absent; skipping livechar gate")
	}
}

// liveCharSummary derives the edge-path tap cost from the
// baseline/with-tap benchmark pair in internal/livechar; nil when they
// weren't in the run.
func liveCharSummary(bs []Benchmark) *LiveCharSummary {
	lc := &LiveCharSummary{
		EdgeBaselineNs: meanNs(bs, "BenchmarkEdgeServeBaseline"),
		EdgeLiveCharNs: meanNs(bs, "BenchmarkEdgeWithLiveChar"),
		DropRate:       meanExtra(bs, "BenchmarkEdgeWithLiveChar", "drop-rate"),
	}
	if lc.EdgeBaselineNs == 0 || lc.EdgeLiveCharNs == 0 {
		return nil
	}
	lc.Overhead = lc.EdgeLiveCharNs/lc.EdgeBaselineNs - 1
	return lc
}

// chunkDecodeSummary derives the cross-format decode comparison from
// the custom records/s and disk-B/rec metrics the Decode benchmarks
// report; nil when they weren't in the run (e.g. filtered by -bench).
func chunkDecodeSummary(bs []Benchmark) *DecodeSummary {
	cd := &DecodeSummary{
		BinarySeqRecordsPerSec: meanExtra(bs, "BenchmarkDecodeBinarySeq", "records/s"),
		ChunkSeqRecordsPerSec:  meanExtra(bs, "BenchmarkDecodeChunkSeq/codec=raw", "records/s"),
		ChunkParRecordsPerSec:  meanExtra(bs, "BenchmarkDecodeChunkParallel/codec=raw", "records/s"),
		BinaryBytesPerRecord:   meanExtra(bs, "BenchmarkDecodeBinarySeq", "disk-B/rec"),
		ChunkBytesPerRecord:    meanExtra(bs, "BenchmarkDecodeChunkSeq/codec=flate", "disk-B/rec"),
	}
	if cd.BinarySeqRecordsPerSec == 0 || cd.ChunkParRecordsPerSec == 0 {
		return nil
	}
	cd.ChunkParSpeedupVsBinary = cd.ChunkParRecordsPerSec / cd.BinarySeqRecordsPerSec
	if cd.BinaryBytesPerRecord > 0 {
		cd.ChunkBytesRatio = cd.ChunkBytesPerRecord / cd.BinaryBytesPerRecord
	}
	return cd
}

// parseBench extracts Benchmark entries from `go test -bench` output.
// A result line looks like:
//
//	BenchmarkGenerate-8   	     100	  11963 ns/op	 2096 B/op	  4 allocs/op
func parseBench(pkg, out string) []Benchmark {
	var res []Benchmark
	for _, line := range strings.Split(out, "\n") {
		fields := strings.Fields(line)
		if len(fields) < 4 || !strings.HasPrefix(fields[0], "Benchmark") {
			continue
		}
		iters, err := strconv.ParseInt(fields[1], 10, 64)
		if err != nil {
			continue
		}
		b := Benchmark{Package: pkg, Name: trimProcSuffix(fields[0]), Iters: iters}
		for i := 2; i+1 < len(fields); i += 2 {
			v, err := strconv.ParseFloat(fields[i], 64)
			if err != nil {
				continue
			}
			switch unit := fields[i+1]; unit {
			case "ns/op":
				b.NsPerOp = v
			case "B/op":
				b.BPerOp = v
			case "allocs/op":
				b.Allocs = v
			case "MB/s":
				// Redundant with ns/op given SetBytes; skip the noise.
			default:
				// Custom b.ReportMetric units (records/s, disk-B/rec, ...).
				if b.Extra == nil {
					b.Extra = make(map[string]float64)
				}
				b.Extra[unit] = v
			}
		}
		if b.NsPerOp > 0 {
			res = append(res, b)
		}
	}
	return res
}

// trimProcSuffix drops the -N GOMAXPROCS suffix go test appends to
// benchmark names, so baselines from different machines line up.
func trimProcSuffix(name string) string {
	i := strings.LastIndexByte(name, '-')
	if i < 0 {
		return name
	}
	if _, err := strconv.Atoi(name[i+1:]); err != nil {
		return name
	}
	return name[:i]
}

// foldReplay reads a jsonreplay report and condenses it into the
// ReplaySummary embedded in the bench baseline.
func foldReplay(path string) (*ReplaySummary, error) {
	rep, err := replay.ReadReport(path)
	if err != nil {
		return nil, err
	}
	sum := &ReplaySummary{
		Source:      path,
		RunID:       rep.RunID,
		AchievedRPS: rep.Throughput.AchievedRPS,
		OfferedRPS:  rep.Throughput.OfferedRPS,
		ErrorRate:   rep.Errors.Rate,
	}
	for _, row := range rep.Latency.Rows {
		switch row.Quantile {
		case 0.50:
			sum.IntendedP50 = row.IntendedMs
		case 0.99:
			sum.IntendedP99 = row.IntendedMs
			sum.ServiceP99 = row.ServiceMs
		case 0.999:
			sum.IntendedP999 = row.IntendedMs
		}
	}
	if rep.SLO != nil {
		pass := rep.SLO.Pass
		sum.SLOPass = &pass
	}
	return sum, nil
}

// meanNs averages ns/op over every entry named name.
func meanNs(bs []Benchmark, name string) float64 {
	var sum float64
	var n int
	for _, b := range bs {
		if b.Name == name {
			sum += b.NsPerOp
			n++
		}
	}
	if n == 0 {
		return 0
	}
	return sum / float64(n)
}

// meanExtra averages the custom metric unit over every entry named name.
func meanExtra(bs []Benchmark, name, unit string) float64 {
	var sum float64
	var n int
	for _, b := range bs {
		if b.Name == name {
			if v, ok := b.Extra[unit]; ok {
				sum += v
				n++
			}
		}
	}
	if n == 0 {
		return 0
	}
	return sum / float64(n)
}
