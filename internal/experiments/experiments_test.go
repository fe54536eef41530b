package experiments

import (
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"
)

// testRunner uses a small but pattern-bearing configuration shared
// across tests (datasets generate once).
var (
	runnerOnce sync.Once
	testRunner *Runner
)

func runner() *Runner {
	runnerOnce.Do(func() {
		cfg := DefaultConfig()
		cfg.Scale = 0.001
		cfg.PatternTarget = 60_000
		cfg.PatternWindow = time.Hour
		cfg.Permutations = 30
		cfg.SampleBin = 2 * time.Second
		testRunner = NewRunner(cfg)
	})
	return testRunner
}

func TestFigure1Shape(t *testing.T) {
	var sb strings.Builder
	res, err := runner().Figure1(&sb)
	if err != nil {
		t.Fatal(err)
	}
	if res.EndRatio < 3.5 {
		t.Errorf("end ratio = %.2f, want > 4-ish", res.EndRatio)
	}
	if res.StartRatio > 1.2 {
		t.Errorf("start ratio = %.2f, want < ~1", res.StartRatio)
	}
	if res.SizeShrink < 0.18 || res.SizeShrink > 0.38 {
		t.Errorf("size shrink = %.2f, want ~0.28", res.SizeShrink)
	}
	if !strings.Contains(sb.String(), "Figure 1") {
		t.Error("output missing header")
	}
}

func TestTable2Shape(t *testing.T) {
	var sb strings.Builder
	res, err := runner().Table2(&sb)
	if err != nil {
		t.Fatal(err)
	}
	// Short is wide (more domains) and short; pattern is narrow and long.
	if res.Short.Domains() <= res.Pattern.Domains() {
		t.Errorf("short domains %d should exceed long domains %d",
			res.Short.Domains(), res.Pattern.Domains())
	}
	if res.Short.Duration() >= res.Pattern.Duration() {
		t.Errorf("short duration %v should be below long %v",
			res.Short.Duration(), res.Pattern.Duration())
	}
}

func TestFigure3Shape(t *testing.T) {
	res, err := runner().Figure3(nil)
	if err != nil {
		t.Fatal(err)
	}
	// Ordering: mobile > unknown > embedded > desktop.
	if !(res.MobileShare > res.UnknownShare && res.UnknownShare > res.EmbeddedShare &&
		res.EmbeddedShare > res.DesktopShare) {
		t.Errorf("device ordering broken: %.2f %.2f %.2f %.2f",
			res.MobileShare, res.UnknownShare, res.EmbeddedShare, res.DesktopShare)
	}
	if res.NonBrowser < 0.8 {
		t.Errorf("non-browser = %.2f, want ~0.88", res.NonBrowser)
	}
	if res.GETShare < 0.78 || res.GETShare > 0.9 {
		t.Errorf("GET share = %.2f", res.GETShare)
	}
	if res.POSTOfRest < 0.9 {
		t.Errorf("POST of rest = %.2f", res.POSTOfRest)
	}
	if res.MedianSmaller <= 0 {
		t.Errorf("JSON median not smaller than HTML: %.2f", res.MedianSmaller)
	}
	if res.P75Smaller <= res.MedianSmaller {
		t.Errorf("p75 gap %.2f should exceed median gap %.2f", res.P75Smaller, res.MedianSmaller)
	}
}

func TestFigure4Shape(t *testing.T) {
	res, err := runner().Figure4(nil)
	if err != nil {
		t.Fatal(err)
	}
	if res.UncacheableShare < 0.4 || res.UncacheableShare > 0.7 {
		t.Errorf("uncacheable = %.2f, want ~0.55", res.UncacheableShare)
	}
	if res.NeverShare < 0.3 || res.NeverShare > 0.7 {
		t.Errorf("never share = %.2f, want ~0.5", res.NeverShare)
	}
	news := res.CacheableByCategory["News/Media"]
	fin := res.CacheableByCategory["Financial Service"]
	if news <= fin {
		t.Errorf("News cacheable %.2f should exceed Financial %.2f", news, fin)
	}
	if res.Heatmap.Rows() != 11 {
		t.Errorf("heatmap rows = %d, want 11 categories", res.Heatmap.Rows())
	}
}

func TestPeriodicityShape(t *testing.T) {
	res, err := runner().Figure5(nil)
	if err != nil {
		t.Fatal(err)
	}
	if res.PeriodicObjects == 0 {
		t.Fatal("no periodic objects detected")
	}
	if res.PeriodicShare < 0.01 || res.PeriodicShare > 0.25 {
		t.Errorf("periodic share = %.3f, want single-digit percent", res.PeriodicShare)
	}
	if res.UploadShare < 0.4 {
		t.Errorf("periodic upload share = %.2f, want high (~0.78)", res.UploadShare)
	}
	var binned int64
	for i := 0; i < res.Histogram.NumBins(); i++ {
		binned += res.Histogram.Count(i)
	}
	if binned == 0 {
		t.Error("empty period histogram")
	}
	// Figure 6 reuses the analysis.
	res6, err := runner().Figure6(nil)
	if err != nil {
		t.Fatal(err)
	}
	if res6 != res {
		t.Error("Figure6 should reuse the periodicity analysis")
	}
	if res.MajorityShare < 0 || res.MajorityShare > 1 {
		t.Errorf("majority share = %v", res.MajorityShare)
	}
}

func TestTable3Shape(t *testing.T) {
	res, err := runner().Table3(nil)
	if err != nil {
		t.Fatal(err)
	}
	for _, k := range table3Ks {
		if res.Actual[k] <= 0 || res.Actual[k] > 1 {
			t.Errorf("actual[%d] = %v", k, res.Actual[k])
		}
	}
	// Monotone in K.
	if !(res.Actual[1] < res.Actual[5] && res.Actual[5] <= res.Actual[10]) {
		t.Errorf("actual accuracies not increasing: %v", res.Actual)
	}
	if !(res.Clustered[1] < res.Clustered[5] && res.Clustered[5] <= res.Clustered[10]) {
		t.Errorf("clustered accuracies not increasing: %v", res.Clustered)
	}
	// Clustering helps at every K.
	for _, k := range table3Ks {
		if res.Clustered[k] <= res.Actual[k] {
			t.Errorf("K=%d: clustered %v not above actual %v", k, res.Clustered[k], res.Actual[k])
		}
	}
	if res.ClusteredVocab >= res.ActualVocab {
		t.Errorf("clustering did not shrink vocab: %d vs %d", res.ClusteredVocab, res.ActualVocab)
	}
	// Rough magnitude: top-1 actual around the paper's .45.
	if res.Actual[1] < 0.2 || res.Actual[1] > 0.75 {
		t.Errorf("actual top-1 = %v, want ~0.45", res.Actual[1])
	}
}

func TestPrefetchShape(t *testing.T) {
	res, err := runner().Prefetch(nil)
	if err != nil {
		t.Fatal(err)
	}
	if res.PrefetchHitRatio <= res.BaselineHitRatio {
		t.Errorf("prefetch %.3f not above baseline %.3f",
			res.PrefetchHitRatio, res.BaselineHitRatio)
	}
	if res.Waste < 0 || res.Waste > 1 {
		t.Errorf("waste = %v", res.Waste)
	}
	if len(res.KSweep) != 2 {
		t.Errorf("K sweep entries = %d", len(res.KSweep))
	}
	if res.Push.Requests == 0 || res.Push.EliminationRate() <= 0 {
		t.Errorf("push result empty: %+v", res.Push)
	}
	if res.Push.EliminationRate() > 0.9 {
		t.Errorf("push elimination %.2f implausibly high", res.Push.EliminationRate())
	}
}

func TestDeprioritizeShape(t *testing.T) {
	res, err := runner().Deprioritize(nil)
	if err != nil {
		t.Fatal(err)
	}
	if res.MachineShare <= 0 || res.MachineShare > 0.3 {
		t.Errorf("machine share = %.3f, want small positive", res.MachineShare)
	}
	if res.Priority.Human.P95 > res.FIFO.Human.P95 {
		t.Errorf("priority human p95 %.4f exceeds FIFO %.4f",
			res.Priority.Human.P95, res.FIFO.Human.P95)
	}
	if res.Priority.Machine.Wait.Mean() < res.FIFO.Machine.Wait.Mean() {
		t.Errorf("machine traffic should wait longer under priority: %.4f vs %.4f",
			res.Priority.Machine.Wait.Mean(), res.FIFO.Machine.Wait.Mean())
	}
	// Same requests served either way.
	if res.Priority.Human.Requests != res.FIFO.Human.Requests {
		t.Error("class counts differ between disciplines")
	}
}

func TestAnomalyShape(t *testing.T) {
	res, err := runner().Anomaly(nil)
	if err != nil {
		t.Fatal(err)
	}
	if res.RequestInjected == 0 || res.PeriodInjected == 0 {
		t.Fatalf("no anomalies injected: %+v", res)
	}
	if res.RequestRecall < 0.7 {
		t.Errorf("request recall = %.2f, want high (foreign URLs score 0)", res.RequestRecall)
	}
	if res.RequestPrecision < 0.3 {
		t.Errorf("request precision = %.2f, too many false alarms", res.RequestPrecision)
	}
	if res.PeriodRecall < 0.8 {
		t.Errorf("period recall = %.2f, bursts should be caught", res.PeriodRecall)
	}
	if res.PeriodPrecision < 0.5 {
		t.Errorf("period precision = %.2f", res.PeriodPrecision)
	}
}

func TestRegionalShape(t *testing.T) {
	res, err := runner().Regional(nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.PeakHour) != 3 {
		t.Fatalf("vantages = %d", len(res.PeakHour))
	}
	// Seattle (-8h) and Tokyo (+9h) are 17 hours apart; their UTC peaks
	// must differ substantially.
	diff := (res.PeakHour["seattle"] - res.PeakHour["tokyo"] + 24) % 24
	if diff > 12 {
		diff = 24 - diff
	}
	if diff < 3 {
		t.Errorf("seattle %02d and tokyo %02d peaks too close",
			res.PeakHour["seattle"], res.PeakHour["tokyo"])
	}
	// Structural shares are vantage-independent: all vantages must agree
	// closely even if the tiny-scale absolute value drifts.
	for label, share := range res.JSONShare {
		if share < 0.45 || share > 0.9 {
			t.Errorf("%s JSON share = %.2f", label, share)
		}
		if diff := share - res.JSONShare["seattle"]; diff > 0.05 || diff < -0.05 {
			t.Errorf("%s share %.2f diverges from seattle %.2f",
				label, share, res.JSONShare["seattle"])
		}
	}
}

func TestRunAllProducesReport(t *testing.T) {
	var sb strings.Builder
	rep, err := runner().RunAll(&sb)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Periods == nil {
		t.Fatal("missing periodicity result")
	}
	outStr := sb.String()
	for _, want := range []string{"Figure 1", "Table 2", "Figure 3", "Figure 4",
		"Figure 5", "Figure 6", "Table 3", "Prefetching", "Deprioritizing"} {
		if !strings.Contains(outStr, want) {
			t.Errorf("report missing %q", want)
		}
	}
}

func TestWriteCSV(t *testing.T) {
	var sb strings.Builder
	rep, err := runner().RunAll(&sb)
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	if err := WriteCSV(dir, rep); err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{"figure1.csv", "figure3.csv", "figure4.csv",
		"figure5.csv", "figure6.csv", "table3.csv", "prefetch.csv", "deprioritize.csv"} {
		data, err := os.ReadFile(filepath.Join(dir, name))
		if err != nil {
			t.Errorf("%s: %v", name, err)
			continue
		}
		lines := strings.Count(string(data), "\n")
		if lines < 2 {
			t.Errorf("%s has only %d lines", name, lines)
		}
	}
	if err := WriteCSV(dir, nil); err == nil {
		t.Error("nil report accepted")
	}
}

func TestConfigSanitize(t *testing.T) {
	r := NewRunner(Config{})
	c := r.Config()
	if c.Scale <= 0 || c.PatternTarget <= 0 || c.Permutations <= 0 ||
		c.PatternWindow <= 0 || c.SampleBin <= 0 {
		t.Errorf("unsanitized config: %+v", c)
	}
}
