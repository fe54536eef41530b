package experiments

import (
	"fmt"
	"io"
	"math"
	"sort"
	"time"

	"repro/internal/livechar"
	"repro/internal/logfmt"
	"repro/internal/obs"
	"repro/internal/stats"
)

// Live-characterization convergence budgets: how close the streaming
// sketches must land to batch ground truth computed over the same
// synthetic stream. The same numbers back the multi-process run in
// scripts/char-check.sh.
const (
	// LiveCharQuantileTol is the worst allowed relative error between a
	// streaming HDR quantile and the exact batch quantile. The sketch's
	// own bound is 1% (2 sigfigs); 5% leaves headroom for bucket-edge
	// rounding on small windows.
	LiveCharQuantileTol = 0.05
	// LiveCharTopOverlapMin is the minimum fraction of the exact top-10
	// objects the Space-Saving sketch must report.
	LiveCharTopOverlapMin = 0.8
)

// QuantilePair is one streaming-vs-batch quantile comparison.
type QuantilePair struct {
	Q      float64
	Stream int64
	Batch  int64
	RelErr float64
}

// LiveCharResult carries the streaming-convergence experiment: a
// synthetic stream with known size distribution, Zipf popularity, an
// injected rate period, and deterministic client flows is pushed
// through the live plane, and every streaming estimate is compared to
// batch ground truth over the identical events.
type LiveCharResult struct {
	Events int64

	// Response-size and inter-arrival quantiles, stream vs batch, with
	// the worst relative error across both.
	SizeQuantiles  []QuantilePair
	InterQuantiles []QuantilePair
	MaxRelErr      float64

	// TopOverlap is |streaming top-10 ∩ exact top-10| / 10.
	TopOverlap float64

	// Periodicity: the injected burst period and what the detector
	// found on the live rate bins.
	InjectedPeriodSec float64
	DetectedPeriodSec float64
	PeriodDetected    bool

	// Online prediction over the stream's flow clients.
	PredictHitRate      float64
	PredictObservations int64
	EntropyBits         float64

	// MergedConsistent: splitting the stream across two planes and
	// merging their snapshots reproduces the single-plane sketch state
	// (counts, sums, top keys).
	MergedConsistent bool
}

// liveCharBase anchors the synthetic stream's event time; any fixed
// instant works, determinism is what matters.
var liveCharBase = time.Date(2026, 5, 1, 0, 0, 0, 0, time.UTC)

// LiveChar runs the streaming-convergence experiment: §4's size and
// inter-arrival distributions, §5.1's periodicity, and §5.2's
// prediction, all estimated live by internal/livechar from one pass
// over a synthetic stream, then checked against exact batch answers.
func (r *Runner) LiveChar(w io.Writer) (LiveCharResult, error) {
	defer r.trace.Start("experiment.livechar").End()
	const (
		durationSec = 240
		burstEvery  = 15 // seconds — the injected period
		burstSize   = 40
		objects     = 500
		flowClients = 8
	)
	rng := stats.NewRNG(r.cfg.Seed + 77)
	zipf := stats.NewZipf(objects, 1.1)
	sizes := stats.LogNormal{Mu: 7.2, Sigma: 1.1} // median ~1.3 KB bodies

	// Deterministic flow clients: each cycles its own 6-URL sequence —
	// the predictable fraction of real app traffic.
	flows := make([][]string, flowClients)
	for c := range flows {
		seq := make([]string, 6)
		for j := range seq {
			seq[j] = fmt.Sprintf("http://app.example.com/flow%d/step%d", c, j)
		}
		flows[c] = seq
	}
	flowPos := make([]int, flowClients)

	var events []logfmt.Record
	for sec := 0; sec < durationSec; sec++ {
		base := liveCharBase.Add(time.Duration(sec) * time.Second)
		// Background: ~20 Zipf-popularity requests per second from a
		// rotating anonymous client pool.
		n := 15 + rng.Intn(10)
		for i := 0; i < n; i++ {
			events = append(events, logfmt.Record{
				Time:     base.Add(time.Duration(rng.Float64() * float64(time.Second))),
				ClientID: uint64(100 + rng.Intn(64)),
				Method:   "GET",
				URL:      fmt.Sprintf("http://api.example.com/obj/%d", zipf.Sample(rng)),
				Status:   200,
				Bytes:    int64(sizes.Sample(rng)) + 1,
			})
		}
		// Flow clients: 4 structured requests per second.
		for i := 0; i < 4; i++ {
			c := (sec*4 + i) % flowClients
			events = append(events, logfmt.Record{
				Time:     base.Add(time.Duration((float64(i) + rng.Float64()) * 250 * float64(time.Millisecond))),
				ClientID: uint64(c),
				Method:   "GET",
				URL:      flows[c][flowPos[c]%len(flows[c])],
				Status:   200,
				Bytes:    int64(sizes.Sample(rng)) + 1,
			})
			flowPos[c]++
		}
		// The injected periodicity: a polling burst every burstEvery s.
		if sec%burstEvery == 0 {
			for i := 0; i < burstSize; i++ {
				events = append(events, logfmt.Record{
					Time:     base.Add(time.Duration(i) * 2 * time.Millisecond),
					ClientID: 99,
					Method:   "GET",
					URL:      "http://poll.example.com/feed",
					Status:   200,
					Bytes:    2048,
				})
			}
		}
	}
	sort.Slice(events, func(i, j int) bool { return events[i].Time.Before(events[j].Time) })

	// One plane sees everything; two more see an interleaved split, to
	// check the fleet-merge path against the single-plane reference.
	cfg := livechar.Config{
		Window: 2 * durationSec * time.Second, // whole stream in one window
		Bin:    time.Second,
		Bins:   durationSec + 60,
		TopK:   10,
		Seed:   r.cfg.Seed,
	}
	full := livechar.New(cfg)
	nodeCfg := cfg
	nodeCfg.Node = "a"
	half1 := livechar.New(nodeCfg)
	nodeCfg.Node = "b"
	half2 := livechar.New(nodeCfg)
	for i := range events {
		full.Observe(&events[i])
		if i%2 == 0 {
			half1.Observe(&events[i])
		} else {
			half2.Observe(&events[i])
		}
	}
	snap := full.Snapshot()
	if snap.Current == nil {
		return LiveCharResult{}, fmt.Errorf("livechar experiment: no current window after %d events", len(events))
	}

	// Batch ground truth from the identical events.
	sizeSamples := make([]int64, len(events))
	urlCounts := map[string]int64{}
	for i := range events {
		sizeSamples[i] = events[i].Bytes
		urlCounts[events[i].URL]++
	}
	interSamples := make([]int64, 0, len(events)-1)
	for i := 1; i < len(events); i++ {
		interSamples = append(interSamples, events[i].Time.Sub(events[i-1].Time).Nanoseconds())
	}

	res := LiveCharResult{
		Events:              snap.Events,
		InjectedPeriodSec:   burstEvery,
		PredictHitRate:      snap.Predict.HitRate,
		PredictObservations: snap.Predict.Observations,
		EntropyBits:         snap.Predict.EntropyBits,
	}

	for _, q := range []float64{0.50, 0.90, 0.99} {
		res.SizeQuantiles = append(res.SizeQuantiles,
			quantilePair(q, snap.Current.SizeQuantiles, sizeSamples))
		res.InterQuantiles = append(res.InterQuantiles,
			quantilePair(q, snap.Current.InterQuantiles, interSamples))
	}
	for _, qp := range append(append([]QuantilePair{}, res.SizeQuantiles...), res.InterQuantiles...) {
		if qp.RelErr > res.MaxRelErr {
			res.MaxRelErr = qp.RelErr
		}
	}

	// Top-10 overlap against exact counts.
	type kc struct {
		k string
		c int64
	}
	exact := make([]kc, 0, len(urlCounts))
	for k, c := range urlCounts {
		exact = append(exact, kc{k, c})
	}
	sort.Slice(exact, func(i, j int) bool {
		if exact[i].c != exact[j].c {
			return exact[i].c > exact[j].c
		}
		return exact[i].k < exact[j].k
	})
	exactTop := map[string]bool{}
	for i := 0; i < 10 && i < len(exact); i++ {
		exactTop[exact[i].k] = true
	}
	hits := 0
	for _, hh := range snap.Current.TopObjects {
		if exactTop[hh.Key] {
			hits++
		}
	}
	res.TopOverlap = float64(hits) / float64(len(exactTop))

	if len(snap.Periods) > 0 {
		res.DetectedPeriodSec = snap.Periods[0].Seconds
		res.PeriodDetected = math.Abs(res.DetectedPeriodSec-res.InjectedPeriodSec) <= 1
	}

	// Merge path: the two half-planes must reproduce the full plane.
	merged, err := livechar.MergeSnapshots("fleet", r.cfg.Seed, half1.Snapshot(), half2.Snapshot())
	if err != nil {
		return res, fmt.Errorf("livechar experiment: merging halves: %w", err)
	}
	res.MergedConsistent = merged.Current != nil &&
		merged.Current.SizeHDR.Count == snap.Current.SizeHDR.Count &&
		merged.Current.SizeHDR.Sum == snap.Current.SizeHDR.Sum &&
		sameTopKeys(merged.Current.TopObjects, snap.Current.TopObjects, 5)

	fmt.Fprintf(w, "live characterization convergence (%d events, seed %d)\n", res.Events, r.cfg.Seed)
	fmt.Fprintf(w, "  %-22s %12s %12s %8s\n", "quantile", "stream", "batch", "rel err")
	for _, qp := range res.SizeQuantiles {
		fmt.Fprintf(w, "  size p%-19.0f %12d %12d %7.2f%%\n", qp.Q*100, qp.Stream, qp.Batch, qp.RelErr*100)
	}
	for _, qp := range res.InterQuantiles {
		fmt.Fprintf(w, "  interarrival p%-11.0f %12d %12d %7.2f%%\n", qp.Q*100, qp.Stream, qp.Batch, qp.RelErr*100)
	}
	fmt.Fprintf(w, "  top-10 overlap: %.0f%%   injected period %gs -> detected %gs (ok=%v)\n",
		res.TopOverlap*100, res.InjectedPeriodSec, res.DetectedPeriodSec, res.PeriodDetected)
	fmt.Fprintf(w, "  predict hit rate %.2f over %d, entropy %.2f bits, fleet merge consistent=%v\n",
		res.PredictHitRate, res.PredictObservations, res.EntropyBits, res.MergedConsistent)
	return res, nil
}

// quantilePair looks up quantile q in the streaming percentile rows and
// compares it to the exact batch quantile over samples (the same
// ceil(q*n)-th order statistic the HDR sketch reports).
func quantilePair(q float64, rows []obs.HDRPercentileRow, samples []int64) QuantilePair {
	qp := QuantilePair{Q: q}
	for _, row := range rows {
		if row.Quantile == q {
			qp.Stream = row.Value
			break
		}
	}
	sorted := append([]int64(nil), samples...)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i] < sorted[j] })
	if len(sorted) > 0 {
		idx := int(math.Ceil(q*float64(len(sorted)))) - 1
		if idx < 0 {
			idx = 0
		}
		if idx >= len(sorted) {
			idx = len(sorted) - 1
		}
		qp.Batch = sorted[idx]
	}
	if qp.Batch != 0 {
		qp.RelErr = math.Abs(float64(qp.Stream)-float64(qp.Batch)) / float64(qp.Batch)
	}
	return qp
}

func sameTopKeys(a, b []livechar.HeavyHitter, k int) bool {
	if len(a) < k || len(b) < k {
		return false
	}
	as := map[string]bool{}
	for i := 0; i < k; i++ {
		as[a[i].Key] = true
	}
	for i := 0; i < k; i++ {
		if !as[b[i].Key] {
			return false
		}
	}
	return true
}
