package main

import (
	"bufio"
	"bytes"
	"os"
	"strings"
	"testing"
)

// fixtureBounds are BENCHMARK.json's end-to-end metrics.
var fixtureBounds = []bound{
	{Name: "setup_s", Unit: "s", Better: "lower", Bound: 0.25},
	{Name: "throughput_per_s", Unit: "1/s", Better: "higher", Bound: 0.25},
	{Name: "p50_ms", Unit: "ms", Better: "lower", Bound: 0.25},
	{Name: "peak_rss_mb", Unit: "MiB", Better: "lower", Bound: 0.15},
}

// fixtureRuns reads testdata/results.jsonl: ten pairs of result lines,
// parent first in odd pairs, built so that each metric lands on a
// different verdict.
func fixtureRuns(t *testing.T) []run {
	t.Helper()
	f, err := os.Open("testdata/results.jsonl")
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	var runs []run
	sc := bufio.NewScanner(f)
	for i := 0; sc.Scan(); i++ {
		res, err := lastResult(strings.NewReader(sc.Text()))
		if err != nil {
			t.Fatalf("line %d: %v", i+1, err)
		}
		pair := i/2 + 1
		side := "change"
		if (i%2 == 0) == (pair%2 == 1) {
			side = "parent"
		}
		runs = append(runs, run{Workload: "repro-batch", Pair: pair, Seed: uint64(3500 + pair), Side: side, Result: res})
	}
	if len(runs) != 20 {
		t.Fatalf("fixture has %d runs, want 20", len(runs))
	}
	return runs
}

func TestAnalyzeVerdicts(t *testing.T) {
	cells := analyze(fixtureRuns(t), fixtureBounds)
	want := map[string]struct {
		parent, change, iqr float64
		wins                int
		verdict             string
	}{
		"throughput_per_s": {32550, 42550, 450, 10, claimable},
		"p50_ms":           {1027.5, 1327.5, 22.5, 0, outside},
		"setup_s":          {0.095, 0.095, 0.055, 4, unresolved},
		"peak_rss_mb":      {54.55, 55.55, 0.45, 0, inside},
	}
	if len(cells) != len(fixtureBounds) {
		t.Fatalf("got %d cells, want %d", len(cells), len(fixtureBounds))
	}
	near := func(a, b float64) bool { return a-b < 1e-9 && b-a < 1e-9 }
	for _, c := range cells {
		w := want[c.Metric]
		if !near(c.Parent, w.parent) || !near(c.Change, w.change) || !near(c.IQR, w.iqr) ||
			c.Wins != w.wins || c.N != 10 || c.Verdict != w.verdict {
			t.Errorf("%s = %+v, want medians %v → %v, IQR %v, %d/10 wins, %s",
				c.Metric, c, w.parent, w.change, w.iqr, w.wins, w.verdict)
		}
	}
}

// TestVerdictApart: a parent spread wider than the bound leaves a
// metric unresolved, unless every change run read better than every
// parent run.
func TestVerdictApart(t *testing.T) {
	m := bound{Name: "setup_s", Better: "lower", Bound: 0.25}
	c := cell{Parent: 1, Change: 0.9, IQR: 0.5, Spread: 0.5, Wins: 7, N: 10}
	if got := verdict(m, c, false); got != unresolved {
		t.Errorf("wide spread = %s, want %s", got, unresolved)
	}
	if got := verdict(m, c, true); got != inside {
		t.Errorf("wide spread, runs apart = %s, want %s", got, inside)
	}
}

// TestTable checks the rendered table: one row, one cell per bound, and
// the count of failed runs.
func TestTable(t *testing.T) {
	l := &ledger{Parent: "aaaa", Change: "bbbb", Seconds: 15, Bounds: fixtureBounds, Runs: fixtureRuns(t)}
	l.Cells = analyze(l.Runs, l.Bounds)
	var b bytes.Buffer
	writeTable(&b, l)
	out := b.String()
	for _, s := range []string{
		"| `repro-batch` |",
		"32550 → 42550 = 1.307× [0.014], 10/10, claimable |",
		"1028 → 1328 = 1.292× [0.022], 0/10, outside bound |",
		"54.55 → 55.55 = 1.018× [0.008], 0/10, inside bound |",
		"20 runs: failed 1, correct false on 1.",
	} {
		if !strings.Contains(out, s) {
			t.Errorf("table lacks %q:\n%s", s, out)
		}
	}
}

func TestLastResultSkipsMetricLines(t *testing.T) {
	stdout := "# repro-batch map[seed:42]\nsetup_s 0.07 s\nthroughput_per_s 43170 1/s\n" +
		`{"correct":true,"attempted":5,"failed":0,"metrics":{"throughput_per_s":{"value":43170,"unit":"1/s"}}}` + "\n\n"
	res, err := lastResult(strings.NewReader(stdout))
	if err != nil || !res.Correct || res.Metrics["throughput_per_s"].Value != 43170 {
		t.Errorf("lastResult = %+v, %v", res, err)
	}
	if _, err := lastResult(strings.NewReader("bench: build failed\n")); err == nil {
		t.Error("output without a result line parsed")
	}
}

func TestParseSeeds(t *testing.T) {
	if a, err := parseSeeds("3501..3510", 10); err != nil || a != 3501 {
		t.Errorf("parseSeeds = %d, %v", a, err)
	}
	for _, bad := range []string{"", "3501", "3510..3501", "x..y", "3501..3505"} {
		if _, err := parseSeeds(bad, 10); err == nil {
			t.Errorf("parseSeeds(%q, 10) accepted", bad)
		}
	}
}
