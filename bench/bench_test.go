package main

import (
	"bytes"
	"context"
	"encoding/json"
	"os"
	"path/filepath"
	"regexp"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/obs"
)

// shortRun runs one workload at smoke-test size through the same code
// path the full size takes.
func shortRun(t *testing.T, workload string, seed uint64, trace bool) outcome {
	t.Helper()
	out, problems, err := runWorkload(context.Background(), options{
		workload: workload, seed: seed, seconds: 1, trace: trace, short: true, outDir: t.TempDir(),
	})
	if err != nil {
		t.Fatalf("%s: %v", workload, err)
	}
	for _, p := range problems {
		t.Errorf("%s: check failed: %s", workload, p)
	}
	if !out.Correct || out.Failed != 0 || out.Attempted < 1 {
		t.Errorf("%s: correct=%v attempted=%d failed=%d", workload, out.Correct, out.Attempted, out.Failed)
	}
	return out
}

// benchmarkJSON is the contract file at the repository root.
type benchmarkJSON struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct{ Name, Why string }
	EndToEnd   []struct {
		Name, Unit, Better string
		Bound              float64
	} `json:"end_to_end"`
	PerLayer []struct{ Name, Unit, Better string } `json:"per_layer"`
}

var (
	nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitRE = regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
)

// TestDeclaredMetricsMatchContract: the tables in metrics.go and
// BENCHMARK.json say the same thing, inside the contract's limits.
func TestDeclaredMetricsMatchContract(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var b benchmarkJSON
	dec := json.NewDecoder(bytes.NewReader(raw))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&b); err != nil {
		t.Fatal(err)
	}
	if len(b.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json has %d workloads, the benchmark %d", len(b.Workloads), len(workloads))
	}
	for i, w := range b.Workloads {
		if w.Name != workloads[i].name || w.Why == "" || len(w.Why) > 200 || strings.Contains(w.Why, "\n") {
			t.Errorf("workload %d: %q (why %d chars), want %q with a one-line why", i, w.Name, len(w.Why), workloads[i].name)
		}
	}
	if len(b.EndToEnd) != len(endToEnd) || len(b.PerLayer) != len(perLayer) || len(perLayer) > 128 || len(endToEnd) > 16 {
		t.Fatalf("BENCHMARK.json has %d+%d metrics, the benchmark %d+%d", len(b.EndToEnd), len(b.PerLayer), len(endToEnd), len(perLayer))
	}
	seen := map[string]bool{}
	hasSetup := false
	for i, d := range endToEnd {
		j := b.EndToEnd[i]
		if j.Name != d.name || j.Unit != d.unit || j.Better != d.better || j.Bound != d.bound {
			t.Errorf("end_to_end %d: BENCHMARK.json %+v, metrics.go %+v", i, j, d)
		}
		if d.bound <= 0 || d.bound > 0.25 {
			t.Errorf("%s: bound %v outside (0, 0.25]", d.name, d.bound)
		}
		hasSetup = hasSetup || (d.name == "setup_s" && d.unit == "s" && d.better == "lower")
	}
	if !hasSetup {
		t.Error("no setup_s metric in seconds, lower is better")
	}
	for i, d := range perLayer {
		j := b.PerLayer[i]
		if j.Name != d.name || j.Unit != d.unit || j.Better != d.better {
			t.Errorf("per_layer %d: BENCHMARK.json %+v, metrics.go %+v", i, j, d)
		}
	}
	for _, d := range append(append([]metricDef(nil), endToEnd...), perLayer...) {
		if !nameRE.MatchString(d.name) || seen[d.name] {
			t.Errorf("metric name %q is malformed or used twice", d.name)
		}
		seen[d.name] = true
		if !unitRE.MatchString(d.unit) {
			t.Errorf("%s: unit %q", d.name, d.unit)
		}
		if d.better != "higher" && d.better != "lower" {
			t.Errorf("%s: better %q", d.name, d.better)
		}
	}
}

// smoke is one smoke-size run of every workload, untraced and traced,
// shared by the tests below.
var smoke struct {
	once sync.Once
	out  map[string]outcome // keyed by workload, "+trace" appended when traced
}

// smokeRuns makes the shared runs, checking as it goes that each
// declared metric is printed exactly once with its unit, that every
// end-to-end metric is non-zero, that the trace file loads, and that no
// goroutine — so no listener and no client — outlives a run.
func smokeRuns(t *testing.T) map[string]outcome {
	smoke.once.Do(func() {
		smoke.out = map[string]outcome{}
		for _, w := range workloads {
			for _, trace := range []bool{false, true} {
				before := runtime.NumGoroutine()
				dir := t.TempDir()
				out, problems, err := runWorkload(context.Background(), options{
					workload: w.name, seed: 42, seconds: 1, trace: trace, short: true, outDir: dir,
				})
				if err != nil || len(problems) > 0 || !out.Correct || out.Failed != 0 {
					t.Fatalf("%s trace=%v: err=%v problems=%v correct=%v failed=%d", w.name, trace, err, problems, out.Correct, out.Failed)
				}
				key := w.name
				if trace {
					key += "+trace"
				}
				smoke.out[key] = out
				checkPrinted(t, key, out, trace)
				if trace {
					checkTraceFile(t, key, out, dir)
				}

				deadline := time.Now().Add(5 * time.Second)
				for runtime.NumGoroutine() > before && time.Now().Before(deadline) {
					time.Sleep(20 * time.Millisecond)
				}
				if n := runtime.NumGoroutine(); n > before {
					buf := make([]byte, 1<<16)
					t.Errorf("%s: %d goroutines before, %d after\n%s", key, before, n, buf[:runtime.Stack(buf, true)])
				}
			}
		}
	})
	if len(smoke.out) != 2*len(workloads) {
		t.Fatal("the smoke runs failed")
	}
	return smoke.out
}

func checkPrinted(t *testing.T, key string, out outcome, trace bool) {
	var buf bytes.Buffer
	if err := out.print(&buf, declared(trace)); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	printed := map[string]int{}
	for _, line := range lines[:len(lines)-1] {
		f := strings.Fields(line)
		if len(f) != 3 {
			t.Errorf("%s: metric line %q", key, line)
			continue
		}
		printed[f[0]+" "+f[2]]++
	}
	for _, d := range declared(trace) {
		if printed[d.name+" "+d.unit] != 1 {
			t.Errorf("%s: %s [%s] printed %d times", key, d.name, d.unit, printed[d.name+" "+d.unit])
		}
		if !trace && out.Metrics[d.name].Value <= 0 {
			t.Errorf("%s: %s = %v, want > 0", key, d.name, out.Metrics[d.name].Value)
		}
	}
	var last outcome
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &last); err != nil || len(last.Metrics) != len(declared(trace)) {
		t.Errorf("%s: last line is not the result: %v", key, err)
	}
}

func checkTraceFile(t *testing.T, key string, out outcome, dir string) {
	if out.Metrics["bench.spans"].Value == 0 {
		t.Errorf("%s: recorded no spans", key)
	}
	files, _ := filepath.Glob(filepath.Join(dir, "trace-*.json"))
	if len(files) != 1 {
		t.Fatalf("%s: wrote %d trace files", key, len(files))
	}
	raw, err := os.ReadFile(files[0])
	var doc struct {
		TraceEvents []map[string]any `json:"traceEvents"`
	}
	if err != nil || json.Unmarshal(raw, &doc) != nil || len(doc.TraceEvents) == 0 {
		t.Errorf("%s: trace file %s does not load", key, files[0])
	}
}

func TestWorkloadsSmoke(t *testing.T) { smokeRuns(t) }

// TestBypassedLayersReportZero: each workload leaves alone the layers
// it claims to bypass, and uses the ones it claims to use.
func TestBypassedLayersReportZero(t *testing.T) {
	out := smokeRuns(t)
	zero := func(key string, layers ...string) {
		for name, m := range out[key].Metrics {
			l, _, _ := strings.Cut(name, ".")
			for _, want := range layers {
				if l == want && m.Value != 0 {
					t.Errorf("%s: %s = %v, want 0", key, name, m.Value)
				}
			}
		}
	}
	zero("serve-hot+trace", "defend", "livechar", "experiments", "logfmt", "taxonomy")
	zero("serve-hostile+trace", "experiments", "logfmt", "taxonomy")
	zero("log-archive+trace", "experiments", "periodicity", "edge", "defend", "fleet", "replay")
	zero("repro-batch+trace", "logfmt", "taxonomy", "edge", "defend", "fleet", "replay")
	for key, names := range map[string][]string{
		"serve-hot+trace":     {"edge.requests", "edge.serve_self_us_p50", "fleet.front_self_us_p50", "fleet.route_ns", "replay.p99_ms", "obs.hdr_record_ns"},
		"serve-hostile+trace": {"defend.admit_ns", "defend.admit_us_p50", "livechar.events", "livechar.tap_us_p99", "edge.origin_fetches"},
		"log-archive+trace":   {"logfmt.chunk_decode_records_per_s", "ingest.run_tsv_records_per_s", "taxonomy.observe_ns_per_record", "bench.scan_records_per_s"},
		"repro-batch+trace":   {"experiments.runall_j1_s", "experiments.step_s.figure5", "periodicity.flows", "ngram.predict_topk_ns", "synth.records_per_s"},
	} {
		for _, name := range names {
			if out[key].Metrics[name].Value == 0 {
				t.Errorf("%s: %s = 0", key, name)
			}
		}
	}
}

// TestCountsRepeat: the same seed gives the same inputs, so metrics
// that count work repeat exactly; another seed gives other inputs.
func TestCountsRepeat(t *testing.T) {
	a := smokeRuns(t)["serve-hot+trace"]
	b, c := shortRun(t, "serve-hot", 42, true), shortRun(t, "serve-hot", 43, true)
	for _, name := range []string{"edge.requests", "edge.origin_fetch_ratio", "replay.offered"} {
		if a.Metrics[name].Value != b.Metrics[name].Value || a.Metrics[name].Value == 0 {
			t.Errorf("serve-hot %s: %v then %v on the same seed", name, a.Metrics[name].Value, b.Metrics[name].Value)
		}
	}
	if a.Attempted != b.Attempted || a.Attempted == c.Attempted {
		t.Errorf("serve-hot attempted: %d, %d on seed 42, %d on seed 43", a.Attempted, b.Attempted, c.Attempted)
	}

	x := smokeRuns(t)["log-archive"]
	y, z := shortRun(t, "log-archive", 42, false), shortRun(t, "log-archive", 43, false)
	if x.Attempted != y.Attempted || x.Attempted == z.Attempted {
		t.Errorf("log-archive attempted: %d, %d on seed 42, %d on seed 43", x.Attempted, y.Attempted, z.Attempted)
	}
}

func TestQuartilesMatchPython(t *testing.T) {
	// statistics.quantiles([1, 2, 4, 7, 11, 16, 22, 29, 37, 46], n=4)
	q1, q2, q3 := quartiles([]float64{46, 1, 2, 4, 7, 11, 16, 22, 29, 37})
	if q1 != 3.5 || q2 != 13.5 || q3 != 31 {
		t.Errorf("quartiles = %v %v %v, want 3.5 13.5 31", q1, q2, q3)
	}
}

// TestQuantileMsInterpolates: quantileMs stays inside the bucket that
// HDRHistogram.Quantile names and moves with the data inside it.
func TestQuantileMsInterpolates(t *testing.T) {
	var last float64
	for _, shift := range []int64{0, 300, 600} {
		h := obs.NewHDRHistogram(obs.LatencyHDRConfig())
		for i := int64(0); i < 10_000; i++ {
			h.Record(600_000 + shift + i*10) // 0.6 ms … 0.7 ms
		}
		edge := float64(h.Quantile(0.5)) / 1e6
		got := quantileMs(h, 0.5)
		want := float64(650_000+shift) / 1e6
		if got > edge || got < want*0.995 || got > want*1.005 {
			t.Errorf("shift %d: quantileMs = %v, want ≈ %v at or below the bucket edge %v", shift, got, want, edge)
		}
		if got <= last {
			t.Errorf("shift %d: quantileMs = %v did not move up from %v", shift, got, last)
		}
		last = got
	}
	if got := 1 - shareAtOrBelow(obs.NewHDRHistogram(obs.LatencyHDRConfig()), 50); got != 0 {
		t.Errorf("share above a limit in an empty histogram = %v", got)
	}
}
