package cdnjson

import (
	"bytes"
	"testing"
	"time"
)

// TestPublicAPIEndToEnd drives the whole library through the public
// facade: generate → encode/decode → characterize → extract flows →
// detect periodicity → train/predict → prefetch-compare.
func TestPublicAPIEndToEnd(t *testing.T) {
	cfg := LongTermConfig(5, 1)
	cfg.Duration = 30 * time.Minute
	cfg.TargetRequests = 20_000
	cfg.Domains = 15

	recs, err := GenerateRecords(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) < 10_000 {
		t.Fatalf("generated only %d records", len(recs))
	}

	// Codec round trip.
	var buf bytes.Buffer
	w := NewLogWriter(&buf, FormatTSV)
	for i := range recs[:100] {
		if err := w.Write(&recs[i]); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	rd, err := NewLogReader(&buf, FormatTSV)
	if err != nil {
		t.Fatal(err)
	}
	n := 0
	if err := rd.ForEach(func(*Record) error { n++; return nil }); err != nil {
		t.Fatal(err)
	}
	if n != 100 {
		t.Fatalf("round trip read %d records", n)
	}

	// Characterization.
	char := NewCharacterization()
	for i := range recs {
		char.ObserveAny(&recs[i])
	}
	if char.Total == 0 || char.DeviceShare(DeviceMobile) <= 0 {
		t.Fatal("characterization empty")
	}

	// UA classification surface.
	if cls := ClassifyUserAgent("NewsApp/3.1 (iPhone; iOS 12.2)"); cls.Device != DeviceMobile {
		t.Errorf("UA classify = %+v", cls)
	}

	// URL clustering surface.
	if got := ClusterURL("https://x.com/a/123"); got != "https://x.com/a/{num}" {
		t.Errorf("ClusterURL = %q", got)
	}

	// Flows and periodicity.
	ex := NewFlowExtractor()
	ex.Filter = func(r *Record) bool { return r.IsJSON() }
	for i := range recs {
		ex.Observe(&recs[i])
	}
	pcfg := DefaultPeriodicityConfig()
	pcfg.Detector.Permutations = 20
	pcfg.SampleBin = 2 * time.Second
	res := AnalyzePeriodicity(ex.Flows(), ex.TotalObserved(), pcfg)
	if res.PeriodicShare() <= 0 {
		t.Error("no periodic traffic found in pattern dataset")
	}

	// Prediction.
	seq := NewSequencer()
	seq.Filter = func(r *Record) bool { return r.IsJSON() }
	for i := range recs {
		seq.Observe(&recs[i])
	}
	model, evals := seq.TrainAndEvaluate(1, []int{1, 10})
	if evals[10].Accuracy() <= evals[1].Accuracy() {
		t.Errorf("K=10 accuracy %v not above K=1 %v", evals[10].Accuracy(), evals[1].Accuracy())
	}

	// Anomaly detection.
	det := NewRequestAnomalyDetector(model)
	r0 := recs[0]
	det.Observe(&r0) // must not panic

	// Prefetch comparison.
	cmp := ComparePrefetch(model, PrefetchConfig{K: 1}, func(fn func(*Record)) {
		for i := range recs {
			if recs[i].IsJSON() {
				fn(&recs[i])
			}
		}
	})
	if cmp.Prefetch.HitRatio() < cmp.Baseline.HitRatio() {
		t.Errorf("prefetch %v below baseline %v", cmp.Prefetch.HitRatio(), cmp.Baseline.HitRatio())
	}

	// Edge pool surface.
	pool := NewEdgePool(2, 1<<20, time.Minute)
	if len(pool.Servers()) != 2 {
		t.Error("pool servers wrong")
	}
}

func TestSchedulingSurface(t *testing.T) {
	reqs := []SchedRequest{
		{Arrival: time.Date(2019, 5, 1, 0, 0, 0, 0, time.UTC), Service: time.Second, Class: ClassMachine},
		{Arrival: time.Date(2019, 5, 1, 0, 0, 0, 0, time.UTC), Service: time.Second, Class: ClassHuman},
	}
	res, err := SimulateScheduling(reqs, SchedConfig{Workers: 1, Discipline: PriorityHuman})
	if err != nil {
		t.Fatal(err)
	}
	if res.Human.Requests != 1 || res.Machine.Requests != 1 {
		t.Errorf("result = %+v", res)
	}
	fifo, prio, err := CompareScheduling(reqs, 1)
	if err != nil || fifo.Human.Requests != prio.Human.Requests {
		t.Errorf("compare: %v", err)
	}
}

func TestTimedAndPushSurface(t *testing.T) {
	now := time.Date(2019, 5, 1, 0, 0, 0, 0, time.UTC)
	timed := func(gap time.Duration) *TimedPredictionModel {
		tm := NewTimedPredictionModel(1)
		tm.TrainTimed([]TimedStep{
			{URL: "https://x.com/a", Time: now},
			{URL: "https://x.com/b", Time: now.Add(gap)},
		})
		return tm
	}
	quick := timed(5 * time.Second)
	if gap, ok := quick.ExpectedGap("https://x.com/a", "https://x.com/b"); !ok || gap <= 0 {
		t.Errorf("gap = %v ok=%v", gap, ok)
	}
	replay := func(fn func(*Record)) {
		for i, u := range []string{"https://x.com/a", "https://x.com/b"} {
			fn(&Record{
				Time: now.Add(time.Duration(i) * 5 * time.Second), ClientID: 1, Method: "GET", URL: u,
				MIMEType: "application/json", Status: 200, Bytes: 10, Cache: CacheMiss,
			})
		}
	}
	cmp := ComparePrefetch(quick, PrefetchConfig{K: 1}, replay)
	if cmp.Prefetch.PrefetchedHits != 1 || cmp.Prefetch.Push.Requests != 2 || cmp.Prefetch.Push.Eliminated != 1 {
		t.Errorf("a -> b in 5 s: prefetch and push did not both deliver b: %+v", cmp.Prefetch)
	}
	// b usually follows a only after ten minutes, past the one-minute TTL:
	// the gap filter skips it.
	if got := ComparePrefetch(timed(10*time.Minute), PrefetchConfig{K: 1, TTL: time.Minute}, replay).Prefetch; got.PrefetchesIssued != 0 || got.Push.Pushes != 0 {
		t.Errorf("slow transition was still delivered: %+v", got)
	}
}

func TestExperimentRunnerSurface(t *testing.T) {
	cfg := DefaultExperimentConfig()
	cfg.Scale = 0.0005
	r := NewExperimentRunner(cfg)
	if _, err := r.Figure1(nil); err != nil {
		t.Fatal(err)
	}
}
