package livechar

import (
	"fmt"
	"math"
	"sort"
	"testing"
	"time"

	"repro/internal/logfmt"
	"repro/internal/obs"
	"repro/internal/stats"
)

// How close the streaming sketches must land to exact batch answers over
// the same events. The HDR sketch's own bound is 1 % (2 significant
// figures); 5 % leaves room for bucket-edge rounding on small windows.
const (
	convergeQuantileTol = 0.05
	convergeTopOverlap  = 0.8
	convergeSeconds     = 240
	convergeBurstEvery  = 15 // seconds: the injected period
)

// convergenceStream is a seeded stream with a known shape: log-normal
// sizes over Zipf-popular objects, eight clients that each cycle a
// six-URL flow, and a 40-request polling burst every convergeBurstEvery
// seconds.
func convergenceStream(seed uint64) []logfmt.Record {
	rng := stats.NewRNG(seed)
	zipf := stats.NewZipf(500, 1.1)
	sizes := stats.LogNormal{Mu: 7.2, Sigma: 1.1} // median ~1.3 KB bodies
	var flowPos [8]int
	var events []logfmt.Record
	add := func(at time.Time, client uint64, url string, bytes int64) {
		events = append(events, *rec(at, client, url, bytes))
	}
	for sec := 0; sec < convergeSeconds; sec++ {
		base := testBase.Add(time.Duration(sec) * time.Second)
		for i, n := 0, 15+rng.Intn(10); i < n; i++ {
			add(base.Add(time.Duration(rng.Float64()*float64(time.Second))), uint64(100+rng.Intn(64)),
				fmt.Sprintf("http://api.example.com/obj/%d", zipf.Sample(rng)), int64(sizes.Sample(rng))+1)
		}
		for i := 0; i < 4; i++ {
			c := (sec*4 + i) % len(flowPos)
			add(base.Add(time.Duration((float64(i)+rng.Float64())*250*float64(time.Millisecond))), uint64(c),
				fmt.Sprintf("http://app.example.com/flow%d/step%d", c, flowPos[c]%6), int64(sizes.Sample(rng))+1)
			flowPos[c]++
		}
		if sec%convergeBurstEvery == 0 {
			for i := 0; i < 40; i++ {
				add(base.Add(time.Duration(i)*2*time.Millisecond), 99, "http://poll.example.com/feed", 2048)
			}
		}
	}
	sort.Slice(events, func(i, j int) bool { return events[i].Time.Before(events[j].Time) })
	return events
}

// exactQuantile is the ceil(q*n)-th order statistic of sorted, the one
// the HDR sketch reports.
func exactQuantile(sorted []int64, q float64) int64 {
	idx := int(math.Ceil(q*float64(len(sorted)))) - 1
	return sorted[min(max(idx, 0), len(sorted)-1)]
}

func streamQuantile(rows []obs.HDRPercentileRow, q float64) int64 {
	for _, row := range rows {
		if row.Quantile == q {
			return row.Value
		}
	}
	return 0
}

// TestStreamingMatchesBatch is the streaming-vs-batch differential: one
// pass of the live plane over a seeded stream must land on the exact
// answers computed over the identical events — size and inter-arrival
// quantiles within convergeQuantileTol, at least convergeTopOverlap of
// the true top-10 objects, the injected period — and splitting the stream
// over two planes and merging must reproduce the single plane's sketches.
func TestStreamingMatchesBatch(t *testing.T) {
	events := convergenceStream(42 + 77)
	cfg := Config{
		Window: 2 * convergeSeconds * time.Second, // whole stream in one window
		Bin:    time.Second,
		Bins:   convergeSeconds + 60,
		TopK:   10,
		Seed:   42,
	}
	run := func() (full, merged Snapshot) {
		cfgA, cfgB := cfg, cfg
		cfgA.Node, cfgB.Node = "a", "b"
		one, a, b := New(cfg), New(cfgA), New(cfgB)
		for i := range events {
			one.Observe(&events[i])
			if i%2 == 0 {
				a.Observe(&events[i])
			} else {
				b.Observe(&events[i])
			}
		}
		merged, err := MergeSnapshots("fleet", cfg.Seed, a.Snapshot(), b.Snapshot())
		if err != nil {
			t.Fatalf("merging halves: %v", err)
		}
		return one.Snapshot(), merged
	}
	snap, merged := run()
	if snap.Events < 4000 || snap.Current == nil || merged.Current == nil {
		t.Fatalf("suspiciously small stream: %d events, current window %v", snap.Events, snap.Current != nil)
	}

	sizes := make([]int64, len(events))
	inter := make([]int64, 0, len(events))
	counts := map[string]int64{}
	for i := range events {
		sizes[i] = events[i].Bytes
		counts[events[i].URL]++
		if i > 0 {
			inter = append(inter, events[i].Time.Sub(events[i-1].Time).Nanoseconds())
		}
	}
	for _, d := range []struct {
		name   string
		rows   []obs.HDRPercentileRow
		sample []int64
	}{{"size", snap.Current.SizeQuantiles, sizes}, {"interarrival", snap.Current.InterQuantiles, inter}} {
		sort.Slice(d.sample, func(i, j int) bool { return d.sample[i] < d.sample[j] })
		for _, q := range []float64{0.50, 0.90, 0.99} {
			stream, batch := streamQuantile(d.rows, q), exactQuantile(d.sample, q)
			if relErr := math.Abs(float64(stream-batch)) / float64(batch); relErr > convergeQuantileTol {
				t.Errorf("%s q%.2f: stream %d vs batch %d — rel err %.3f exceeds %.2f",
					d.name, q, stream, batch, relErr, convergeQuantileTol)
			}
		}
	}

	urls := make([]string, 0, len(counts))
	for u := range counts {
		urls = append(urls, u)
	}
	sort.Slice(urls, func(i, j int) bool {
		if counts[urls[i]] != counts[urls[j]] {
			return counts[urls[i]] > counts[urls[j]]
		}
		return urls[i] < urls[j]
	})
	exactTop := map[string]bool{}
	for _, u := range urls[:10] {
		exactTop[u] = true
	}
	hits := 0
	for _, hh := range snap.Current.TopObjects {
		if exactTop[hh.Key] {
			hits++
		}
	}
	if overlap := float64(hits) / 10; overlap < convergeTopOverlap {
		t.Errorf("top-10 overlap %.2f below %.2f", overlap, convergeTopOverlap)
	}

	if len(snap.Periods) == 0 || math.Abs(snap.Periods[0].Seconds-convergeBurstEvery) > 1 {
		t.Errorf("injected %ds period not detected: %+v", convergeBurstEvery, snap.Periods)
	}
	if snap.Predict.HitRate <= 0.1 || snap.Predict.Observations == 0 {
		t.Errorf("online prediction learned nothing: hit rate %.3f over %d",
			snap.Predict.HitRate, snap.Predict.Observations)
	}

	if merged.Current.SizeHDR.Count != snap.Current.SizeHDR.Count ||
		merged.Current.SizeHDR.Sum != snap.Current.SizeHDR.Sum {
		t.Errorf("merged size sketch count/sum = %d/%d, want %d/%d", merged.Current.SizeHDR.Count,
			merged.Current.SizeHDR.Sum, snap.Current.SizeHDR.Count, snap.Current.SizeHDR.Sum)
	}
	top5 := func(hh []HeavyHitter) []string {
		keys := make([]string, 0, 5)
		for _, h := range hh[:min(5, len(hh))] {
			keys = append(keys, h.Key)
		}
		sort.Strings(keys)
		return keys
	}
	if got, want := top5(merged.Current.TopObjects), top5(snap.Current.TopObjects); fmt.Sprint(got) != fmt.Sprint(want) {
		t.Errorf("merged top-5 keys %v, single plane %v", got, want)
	}

	// Seeded end to end: a second pass lands on the same estimates.
	again, _ := run()
	if again.Events != snap.Events || again.Predict.HitRate != snap.Predict.HitRate ||
		fmt.Sprint(again.Periods) != fmt.Sprint(snap.Periods) ||
		fmt.Sprint(again.Current.TopObjects) != fmt.Sprint(snap.Current.TopObjects) {
		t.Errorf("rerun diverged:\n%+v\n%+v", again, snap)
	}
}
