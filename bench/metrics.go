package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"sort"
	"strconv"
)

// metricDef declares one metric. BENCHMARK.json at the repository root
// lists the same names, units, directions and bounds; the smoke test
// compares the two.
type metricDef struct {
	name   string
	unit   string
	better string  // "higher" or "lower"
	bound  float64 // end-to-end only: share of the median it may worsen by
}

// endToEnd is what a user of either product sees. Every workload
// reports every one of them; README.md says what each means on a batch
// and on a serving workload.
var endToEnd = []metricDef{
	{"setup_s", "s", "lower", 0.25},
	{"throughput_per_s", "1/s", "higher", 0.25},
	{"p50_ms", "ms", "lower", 0.25},
	{"peak_rss_mb", "MiB", "lower", 0.15},
}

// perLayer is measured in the traced run. A workload that bypasses a
// layer reports 0 for it.
var perLayer = []metricDef{
	{"synth.records_per_s", "rec/s", "higher", 0},
	{"synth.alloc_b_per_record", "B/rec", "lower", 0},

	{"logfmt.chunk_write_records_per_s", "rec/s", "higher", 0},
	{"logfmt.chunk_decode_records_per_s", "rec/s", "higher", 0},
	{"logfmt.tsv_parse_records_per_s", "rec/s", "higher", 0},
	{"logfmt.disk_bytes_per_record", "B/rec", "lower", 0},
	{"logfmt.bytes_ratio_vs_binary", "ratio", "lower", 0},

	{"ingest.run_chunks_records_per_s", "rec/s", "higher", 0},
	{"ingest.run_tsv_records_per_s", "rec/s", "higher", 0},
	{"ingest.parallel_speedup", "x", "higher", 0},
	{"ingest.quarantined", "count", "lower", 0},
	{"ingest.wall_share", "ratio", "lower", 0},

	{"taxonomy.observe_ns_per_record", "ns", "lower", 0},

	{"experiments.runall_s", "s", "lower", 0},
	{"experiments.runall_j1_s", "s", "lower", 0},
	{"experiments.parallel_speedup", "x", "higher", 0},
	{"experiments.resource_phase_s", "s", "lower", 0},
	{"experiments.step_s.figure1", "s", "lower", 0},
	{"experiments.step_s.table2", "s", "lower", 0},
	{"experiments.step_s.figure3", "s", "lower", 0},
	{"experiments.step_s.figure4", "s", "lower", 0},
	{"experiments.step_s.figure5", "s", "lower", 0},
	{"experiments.step_s.figure6", "s", "lower", 0},
	{"experiments.step_s.table3", "s", "lower", 0},
	{"experiments.step_s.prefetch", "s", "lower", 0},
	{"experiments.step_s.deprioritize", "s", "lower", 0},
	{"experiments.step_s.anomaly", "s", "lower", 0},
	{"experiments.step_s.regional", "s", "lower", 0},
	{"experiments.step_s.resilience", "s", "lower", 0},
	{"experiments.step_s.adversarial", "s", "lower", 0},
	{"experiments.alloc_mb", "MiB", "lower", 0},
	{"experiments.mallocs_m", "1e6", "lower", 0},
	{"experiments.steps_failed", "count", "lower", 0},

	{"periodicity.analyze_s", "s", "lower", 0},
	{"periodicity.flows", "count", "higher", 0},
	{"periodicity.ms_per_flow", "ms", "lower", 0},

	{"ngram.train_ns_per_token", "ns", "lower", 0},
	{"ngram.predict_topk_ns", "ns", "lower", 0},

	{"edge.serve_self_us_p50", "us", "lower", 0},
	{"edge.serve_self_us_p99", "us", "lower", 0},
	{"edge.cache_lookup_ns", "ns", "lower", 0},
	{"edge.serve_hit_ns", "ns", "lower", 0},
	{"edge.serve_miss_ns", "ns", "lower", 0},
	{"edge.origin_fetch_us_p50", "us", "lower", 0},
	{"edge.hit_ratio", "ratio", "higher", 0},
	{"edge.requests", "count", "higher", 0},
	{"edge.origin_fetches", "count", "lower", 0},
	{"edge.origin_fetch_ratio", "ratio", "lower", 0},

	{"defend.admit_us_p50", "us", "lower", 0},
	{"defend.admit_us_p99", "us", "lower", 0},
	{"defend.admit_ns", "ns", "lower", 0},
	{"defend.rejects", "count", "lower", 0},
	{"defend.collapses", "count", "higher", 0},
	{"defend.benign_reject_ratio", "ratio", "lower", 0},

	{"livechar.observe_ns", "ns", "lower", 0},
	{"livechar.tap_us_p99", "us", "lower", 0},
	{"livechar.events", "count", "higher", 0},
	{"livechar.drop_ratio", "ratio", "lower", 0},

	{"fleet.front_self_us_p50", "us", "lower", 0},
	{"fleet.front_self_us_p99", "us", "lower", 0},
	{"fleet.route_ns", "ns", "lower", 0},
	{"fleet.failovers", "count", "lower", 0},
	{"fleet.hedges", "count", "lower", 0},

	{"resilience.fetch_overhead_ns", "ns", "lower", 0},
	{"resilience.retries", "count", "lower", 0},

	{"replay.service_p50_ms", "ms", "lower", 0},
	{"replay.service_p99_ms", "ms", "lower", 0},
	{"replay.sched_lag_p50_ms", "ms", "lower", 0},
	{"replay.sched_lag_p99_ms", "ms", "lower", 0},
	{"replay.p99_ms", "ms", "lower", 0},
	{"replay.p999_ms", "ms", "lower", 0},
	{"replay.over_limit_ratio", "ratio", "lower", 0},
	{"replay.offered", "count", "higher", 0},
	{"replay.dropped", "count", "lower", 0},
	{"replay.max_dispatch_rps", "req/s", "higher", 0},

	{"obs.hdr_record_ns", "ns", "lower", 0},

	{"bench.write_records_per_s", "rec/s", "higher", 0},
	{"bench.scan_records_per_s", "rec/s", "higher", 0},
	{"bench.fail_ratio", "ratio", "lower", 0},
	{"bench.slowest_pass_ms", "ms", "lower", 0},
	{"bench.latency_samples", "count", "higher", 0},
	{"bench.trace_overhead_ratio", "ratio", "higher", 0},
	{"bench.spans", "count", "higher", 0},
	{"bench.spans_dropped", "count", "lower", 0},
}

// declared returns the metrics a run in the given mode prints.
func declared(trace bool) []metricDef {
	if trace {
		return perLayer
	}
	return endToEnd
}

// metricSet collects a run's values. Setting a name that is not
// declared, or setting one twice, is a bug in the benchmark.
type metricSet map[string]float64

var declaredNames = func() map[string]bool {
	m := make(map[string]bool)
	for _, d := range endToEnd {
		m[d.name] = true
	}
	for _, d := range perLayer {
		m[d.name] = true
	}
	return m
}()

func (m metricSet) set(name string, v float64) {
	if !declaredNames[name] {
		panic("bench: metric not declared: " + name)
	}
	if _, dup := m[name]; dup {
		panic("bench: metric set twice: " + name)
	}
	if math.IsNaN(v) || math.IsInf(v, 0) {
		v = 0
	}
	m[name] = v
}

// outcome is what one run of one workload reports.
type outcome struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// print writes each metric as "name value unit" and then the outcome as
// one JSON object on the last line.
func (o outcome) print(w io.Writer, defs []metricDef) error {
	for _, d := range defs {
		fmt.Fprintf(w, "%s %s %s\n", d.name, strconv.FormatFloat(o.Metrics[d.name].Value, 'g', -1, 64), d.unit)
	}
	line, err := json.Marshal(o)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "%s\n", line)
	return err
}

// quantile returns the nearest-rank q-quantile of vs (which it sorts),
// or 0 for an empty sample.
func quantile(vs []float64, q float64) float64 {
	if len(vs) == 0 {
		return 0
	}
	sort.Float64s(vs)
	i := int(math.Ceil(q*float64(len(vs)))) - 1
	if i < 0 {
		i = 0
	}
	return vs[i]
}

func median(vs []float64) float64 { return quantile(vs, 0.5) }

// bestRate and bestTime pick, from the rates or the times of a run's
// windows or passes, the one that stands for the run: the upper quartile
// of rates, the lower quartile of times. Whatever else runs on the
// machine only ever slows a window down, and does so for seconds at a
// stretch, so the median follows the machine's bad spells, while the
// best quarter needs only a quarter of the windows to be undisturbed
// and, unlike the best one, is not set by a single lucky window.
func bestRate(vs []float64) float64 { return quantile(vs, 0.75) }
func bestTime(vs []float64) float64 { return quantile(vs, 0.25) }

func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}
