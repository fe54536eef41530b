package livechar

import (
	"encoding/json"
	"fmt"
	"math"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/logfmt"
	"repro/internal/obs"
)

var testBase = time.Date(2026, 3, 1, 12, 0, 0, 0, time.UTC)

func rec(t time.Time, client uint64, url string, bytes int64) *logfmt.Record {
	return &logfmt.Record{
		Time:     t,
		ClientID: client,
		Method:   "GET",
		URL:      url,
		Status:   200,
		Bytes:    bytes,
	}
}

func TestBinRing(t *testing.T) {
	r := newBinRing(time.Second, 8)
	if start, bins := r.series(); bins != nil || !start.IsZero() {
		t.Fatalf("empty ring series = %v %v", start, bins)
	}
	t0 := testBase.UnixNano()
	r.add(t0, 1)
	r.add(t0+500e6, 1) // same bin
	r.add(t0+3e9, 2)   // gap of 2 empty bins
	start, bins := r.series()
	if !start.Equal(testBase) {
		t.Errorf("series start = %v, want %v", start, testBase)
	}
	if want := []int64{2, 0, 0, 2}; fmt.Sprint(bins) != fmt.Sprint(want) {
		t.Errorf("bins = %v, want %v", bins, want)
	}
	// Advance past capacity: oldest bins fall off.
	r.add(t0+10e9, 1)
	_, bins = r.series()
	if len(bins) != 8 {
		t.Errorf("len(bins) = %d, want capacity 8", len(bins))
	}
	if bins[len(bins)-1] != 1 {
		t.Errorf("newest bin = %d, want 1", bins[len(bins)-1])
	}
	// Event older than the retained window is dropped.
	r.add(t0, 5)
	_, bins2 := r.series()
	if fmt.Sprint(bins2) != fmt.Sprint(bins) {
		t.Errorf("stale add mutated ring: %v vs %v", bins2, bins)
	}
	// Gap larger than the ring restarts it.
	r.add(t0+1000e9, 3)
	_, bins = r.series()
	if len(bins) != 1 || bins[0] != 3 {
		t.Errorf("post-gap bins = %v, want [3]", bins)
	}
}

func TestDetectPeriodsSyntheticSignal(t *testing.T) {
	// Square wave: burst every 10 bins over a noisy floor.
	bins := make([]int64, 300)
	for i := range bins {
		bins[i] = 5
		if i%10 == 0 {
			bins[i] = 60
		}
	}
	periods := DetectPeriods(bins, time.Second, 1, 3)
	if len(periods) == 0 {
		t.Fatal("no period detected in strongly periodic signal")
	}
	if periods[0].LagBins != 10 {
		t.Errorf("strongest period = %d bins, want 10 (all: %+v)", periods[0].LagBins, periods)
	}
	if periods[0].Seconds != 10 {
		t.Errorf("period seconds = %g, want 10", periods[0].Seconds)
	}

	if got := DetectPeriods(bins[:8], time.Second, 1, 3); len(got) != 0 {
		t.Errorf("short signal: periods = %+v, want none", got)
	}
	flat := make([]int64, 120)
	for i := range flat {
		flat[i] = 7
	}
	if got := DetectPeriods(flat, time.Second, 1, 3); len(got) != 0 {
		t.Errorf("constant signal: periods = %+v, want none", got)
	}
}

// TestLiveCharWindows drives a deterministic two-window stream inline
// and checks rotation, windowed quantiles, heavy hitters, and the
// snapshot payload shape.
func TestLiveCharWindows(t *testing.T) {
	lc := New(Config{Window: 10 * time.Second, Bin: time.Second, TopK: 3, Node: "n0"})

	// Window 1: 20 events, sizes 1000×i, popular object repeated.
	for i := 0; i < 20; i++ {
		ts := testBase.Add(time.Duration(i) * 400 * time.Millisecond)
		url := fmt.Sprintf("http://api.example.com/v1/item/%d", i%5)
		lc.Observe(rec(ts, uint64(i%3), url, int64(1000*(i+1))))
	}
	snap := lc.Snapshot()
	if snap.Rotations != 0 || snap.Current == nil || snap.Last != nil {
		t.Fatalf("pre-rotation: rotations=%d current=%v last=%v", snap.Rotations, snap.Current != nil, snap.Last != nil)
	}
	if snap.Current.Events != 20 {
		t.Errorf("current events = %d, want 20", snap.Current.Events)
	}

	// First event of the next window triggers rotation.
	lc.Observe(rec(testBase.Add(11*time.Second), 9, "http://api.example.com/v1/other", 500))
	snap = lc.Snapshot()
	if snap.Rotations != 1 || snap.Last == nil {
		t.Fatalf("post-rotation: rotations=%d last=%v", snap.Rotations, snap.Last != nil)
	}
	w := snap.Last
	if w.Events != 20 {
		t.Errorf("last window events = %d, want 20", w.Events)
	}
	if !w.Start.Equal(testBase) || !w.End.Equal(testBase.Add(10*time.Second)) {
		t.Errorf("window span = [%v, %v], want [%v, %v]", w.Start, w.End, testBase, testBase.Add(10*time.Second))
	}
	// Sizes were 1000..20000; the median must be within HDR's 1%
	// relative error of the exact 10000.
	med := float64(0)
	for _, row := range w.SizeQuantiles {
		if row.Quantile == 0.5 {
			med = float64(row.Value)
		}
	}
	if math.Abs(med-10000)/10000 > 0.02 {
		t.Errorf("windowed size median = %g, want ~10000", med)
	}
	// URLs item/0..4 appeared 4× each; top-3 counts must all be 4.
	if len(w.TopObjects) != 3 {
		t.Fatalf("top objects = %+v, want 3 entries", w.TopObjects)
	}
	for _, hh := range w.TopObjects {
		if hh.Count != 4 || hh.Err != 0 {
			t.Errorf("top object %+v, want count 4 err 0", hh)
		}
	}
	if len(w.TopDomains) == 0 || w.TopDomains[0].Key != "api.example.com" || w.TopDomains[0].Count != 20 {
		t.Errorf("top domains = %+v, want api.example.com ×20", w.TopDomains)
	}
	// Inter-arrival gaps were uniform 400 ms.
	p50 := int64(0)
	for _, row := range w.InterQuantiles {
		if row.Quantile == 0.5 {
			p50 = row.Value
		}
	}
	if math.Abs(float64(p50)-4e8)/4e8 > 0.02 {
		t.Errorf("inter-arrival median = %d ns, want ~4e8", p50)
	}

	// JSON round-trip preserves the mergeable state.
	data, err := json.Marshal(snap)
	if err != nil {
		t.Fatal(err)
	}
	var back Snapshot
	if err := json.Unmarshal(data, &back); err != nil {
		t.Fatal(err)
	}
	if back.Schema != SnapshotSchema || back.Node != "n0" || back.Last.SizeHDR.Count != 20 {
		t.Errorf("round-trip lost state: schema=%q node=%q count=%d", back.Schema, back.Node, back.Last.SizeHDR.Count)
	}
}

// TestLiveCharPeriodDetection injects a bursty periodic stream and
// expects the live plane to find the injected period.
func TestLiveCharPeriodDetection(t *testing.T) {
	lc := New(Config{Window: time.Minute, Bin: time.Second, Bins: 600})
	// 5 min of traffic: 2 background events/s plus a 40-event burst
	// every 15 s.
	for sec := 0; sec < 300; sec++ {
		ts := testBase.Add(time.Duration(sec) * time.Second)
		for i := 0; i < 2; i++ {
			lc.Observe(rec(ts.Add(time.Duration(i)*100*time.Millisecond), 1, "http://bg.example.com/x", 100))
		}
		if sec%15 == 0 {
			for i := 0; i < 40; i++ {
				lc.Observe(rec(ts.Add(time.Duration(i)*time.Millisecond), 2, "http://poll.example.com/feed", 2048))
			}
		}
	}
	snap := lc.Snapshot()
	if len(snap.Periods) == 0 {
		t.Fatal("no period detected in injected 15s-periodic stream")
	}
	if got := snap.Periods[0].Seconds; math.Abs(got-15) > 1 {
		t.Errorf("strongest period = %gs, want ~15s (all: %+v)", got, snap.Periods)
	}
	if len(snap.Bins) == 0 || snap.BinsStart.IsZero() {
		t.Errorf("snapshot missing rate bins: start=%v len=%d", snap.BinsStart, len(snap.Bins))
	}
}

// TestLiveCharPredictability feeds deterministic per-client cycles; the
// online ngram model must learn them and the hit rate converge high.
func TestLiveCharPredictability(t *testing.T) {
	lc := New(Config{Window: time.Minute, PredictK: 3, NgramOrder: 2})
	cycle := []string{"http://a.example.com/1", "http://a.example.com/2", "http://a.example.com/3", "http://a.example.com/4"}
	for i := 0; i < 400; i++ {
		ts := testBase.Add(time.Duration(i) * 100 * time.Millisecond)
		lc.Observe(rec(ts, uint64(i%4), cycle[(i/4)%len(cycle)], 256))
	}
	st := lc.Snapshot().Predict
	if st.Observations == 0 {
		t.Fatal("no predictions attempted")
	}
	if st.Eligible != st.Observations {
		t.Errorf("eligible %d, observations %d: every candidate is scored", st.Eligible, st.Observations)
	}
	if st.HitRate < 0.8 {
		t.Errorf("hit rate = %.3f on a deterministic cycle, want >= 0.8 (%+v)", st.HitRate, st)
	}
	if st.Vocab != len(cycle) {
		t.Errorf("vocab = %d, want %d", st.Vocab, len(cycle))
	}
	// Uniform 4-URL unigram distribution: entropy ~2 bits.
	if math.Abs(st.EntropyBits-2) > 0.1 {
		t.Errorf("entropy = %.3f bits, want ~2", st.EntropyBits)
	}
}

// TestLiveCharAsync exercises the tap under concurrency (run with
// -race): concurrent observers, a scraping reader, clean drain on
// Close, and applied+dropped accounting for every event sent.
func TestLiveCharAsync(t *testing.T) {
	lc := New(Config{Window: time.Second, Buffer: 64})
	lc.Start()
	const goroutines, perG = 8, 500
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < perG; i++ {
				ts := testBase.Add(time.Duration(g*perG+i) * time.Millisecond)
				lc.Observe(rec(ts, uint64(g), fmt.Sprintf("http://h%d.example.com/%d", g, i%7), int64(i)))
			}
		}(g)
	}
	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 0; i < 50; i++ {
			lc.Snapshot()
		}
	}()
	wg.Wait()
	<-done
	lc.Close()
	snap := lc.Snapshot()
	if got := snap.Events + snap.Drops; got != goroutines*perG {
		t.Errorf("events+drops = %d, want %d", got, goroutines*perG)
	}
	// After Close, Observe applies inline again.
	before := snap.Events
	lc.Observe(rec(testBase.Add(time.Hour), 1, "http://late.example.com/", 1))
	if got := lc.Snapshot().Events; got != before+1 {
		t.Errorf("post-Close inline observe: events = %d, want %d", got, before+1)
	}
}

// TestLiveCharInstrument pins the Prometheus surface: families present,
// rank-labeled top-K (bounded cardinality — no URL labels anywhere),
// and the HDR summaries exposed with scaled units.
func TestLiveCharInstrument(t *testing.T) {
	lc := New(Config{Window: 10 * time.Second, TopK: 3})
	reg := obs.NewRegistry()
	lc.Instrument(reg)
	for i := 0; i < 30; i++ {
		ts := testBase.Add(time.Duration(i) * 500 * time.Millisecond)
		lc.Observe(rec(ts, uint64(i%2), fmt.Sprintf("http://api.example.com/obj/%d", i%3), 4096))
	}
	lc.Observe(rec(testBase.Add(15*time.Second), 1, "http://api.example.com/obj/0", 4096)) // rotate

	var sb strings.Builder
	reg.WritePrometheus(&sb)
	text := sb.String()
	for _, want := range []string{
		"livechar_events_total 31",
		"livechar_drops_total 0",
		"livechar_window_rotations_total 1",
		"livechar_window_seconds 10",
		"livechar_size_bytes{quantile=\"0.5\"}",
		"livechar_size_bytes_count 31",
		"livechar_interarrival_seconds{quantile=",
		"livechar_topk_count{rank=\"1\"}",
		"livechar_topk_count{rank=\"3\"}",
		"livechar_predict_hit_rate",
		"livechar_predict_entropy_bits",
		"livechar_ngram_vocab 3",
		"livechar_period_seconds",
	} {
		if !strings.Contains(text, want) {
			t.Errorf("exposition missing %q", want)
		}
	}
	if strings.Contains(text, "example.com") {
		t.Error("exposition leaks URL labels (unbounded cardinality)")
	}

	// /charz handler round-trip.
	srv := httptest.NewServer(lc.Handler())
	defer srv.Close()
	resp, err := srv.Client().Get(srv.URL)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); ct != "application/json" {
		t.Errorf("content-type = %q", ct)
	}
	var snap Snapshot
	if err := json.NewDecoder(resp.Body).Decode(&snap); err != nil {
		t.Fatal(err)
	}
	if snap.Schema != SnapshotSchema || snap.Events != 31 {
		t.Errorf("/charz snapshot: schema=%q events=%d", snap.Schema, snap.Events)
	}
	if snap.Periods == nil {
		t.Error("/charz periods field absent; must be [] even when empty")
	}
}

// TestMergeSnapshots splits one deterministic stream across two planes
// and checks the merged view equals a single plane that saw everything:
// summed HDR sketches, exact top-K counts, time-aligned bins, and
// summed prediction tallies.
func TestMergeSnapshots(t *testing.T) {
	cfg := Config{Window: 20 * time.Second, Bin: time.Second, TopK: 5}
	all, a, b := New(cfg), New(Config{Window: 20 * time.Second, Bin: time.Second, TopK: 5, Node: "n1"}), New(Config{Window: 20 * time.Second, Bin: time.Second, TopK: 5, Node: "n2"})
	for i := 0; i < 200; i++ {
		ts := testBase.Add(time.Duration(i) * 50 * time.Millisecond)
		r := rec(ts, uint64(i%6), fmt.Sprintf("http://api.example.com/obj/%d", i%4), int64(100*(i%10+1)))
		all.Observe(r)
		if i%2 == 0 {
			a.Observe(r)
		} else {
			b.Observe(r)
		}
	}
	merged, err := MergeSnapshots("fleet", 1, a.Snapshot(), b.Snapshot())
	if err != nil {
		t.Fatal(err)
	}
	ref := all.Snapshot()
	if merged.Events != ref.Events {
		t.Errorf("merged events = %d, want %d", merged.Events, ref.Events)
	}
	if len(merged.Nodes) != 2 {
		t.Errorf("merged nodes = %v", merged.Nodes)
	}
	if merged.Current == nil || ref.Current == nil {
		t.Fatal("missing current windows")
	}
	if merged.Current.SizeHDR.Count != ref.Current.SizeHDR.Count ||
		merged.Current.SizeHDR.Sum != ref.Current.SizeHDR.Sum {
		t.Errorf("merged size sketch count/sum = %d/%d, want %d/%d",
			merged.Current.SizeHDR.Count, merged.Current.SizeHDR.Sum,
			ref.Current.SizeHDR.Count, ref.Current.SizeHDR.Sum)
	}
	// Both halves tracked exactly (under budget), so merged top counts
	// are exact and match the single-plane reference.
	if len(merged.Current.TopObjects) != 4 {
		t.Fatalf("merged top objects = %+v", merged.Current.TopObjects)
	}
	for i, hh := range merged.Current.TopObjects {
		want := ref.Current.TopObjects[i]
		if hh.Key != want.Key || hh.Count != want.Count {
			t.Errorf("merged top[%d] = %+v, want %+v", i, hh, want)
		}
	}
	// Bins align on absolute time, so the merged rate signal is the sum.
	if fmt.Sprint(merged.Bins) != fmt.Sprint(ref.Bins) {
		t.Errorf("merged bins %v != reference %v", merged.Bins, ref.Bins)
	}
	if !merged.BinsStart.Equal(ref.BinsStart) {
		t.Errorf("merged bins start %v != %v", merged.BinsStart, ref.BinsStart)
	}
	if merged.Predict.Observations != a.Snapshot().Predict.Observations+b.Snapshot().Predict.Observations {
		t.Errorf("merged predict observations = %d", merged.Predict.Observations)
	}

	// Config mismatches refuse to merge.
	other := New(Config{Window: 30 * time.Second})
	if _, err := MergeSnapshots("x", 1, a.Snapshot(), other.Snapshot()); err == nil {
		t.Error("mismatched window merge succeeded, want error")
	}
	if _, err := MergeSnapshots("x", 1); err == nil {
		t.Error("empty merge succeeded, want error")
	}
}

// BenchmarkObserveAsync measures the hot-path cost of the tap itself:
// what the edge pays per request when livechar is enabled.
func BenchmarkObserveAsync(b *testing.B) {
	lc := New(Config{Buffer: 1 << 16})
	lc.Start()
	defer lc.Close()
	r := rec(testBase, 42, "http://api.example.com/v1/data.json", 4096)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r.Time = testBase.Add(time.Duration(i) * time.Microsecond)
		lc.Observe(r)
	}
}

// BenchmarkApply measures the consumer-side cost of folding one event
// into every sketch (inline mode).
func BenchmarkApply(b *testing.B) {
	lc := New(Config{})
	r := rec(testBase, 42, "http://api.example.com/v1/data.json", 4096)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r.Time = testBase.Add(time.Duration(i) * 100 * time.Microsecond)
		r.ClientID = uint64(i % 32)
		lc.Observe(r)
	}
}
