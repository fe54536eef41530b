package experiments

import (
	"fmt"
	"io"

	"repro/internal/logfmt"
	"repro/internal/ngram"
	"repro/internal/prefetch"
	"repro/internal/stats"
)

// PrefetchResult carries the §5.2-implication experiment: replaying the
// pattern dataset through the simulated edge with and without
// prediction-driven prefetching.
type PrefetchResult struct {
	Comparison prefetch.Comparison
	// BaselineHitRatio and PrefetchHitRatio are cache hit ratios over
	// cacheable requests.
	BaselineHitRatio float64
	PrefetchHitRatio float64
	// Waste is the share of prefetches that never produced a hit.
	Waste float64
	// KSweep maps prefetch fan-out K to (hit ratio, waste).
	KSweep map[int][2]float64
	// Push is the server-push alternative (§5.2 mentions HTTP Server
	// Push explicitly), booked from the K=1 replay's predictions: the
	// share of requests a correct push eliminates.
	Push prefetch.PushResult
}

// Prefetch runs the prefetching experiment: an ngram model is trained on
// the training clients, then the whole stream replays against identical
// edge pools with and without prefetching. The paper suggests this
// optimization; the experiment quantifies it on the simulated edge.
func (r *Runner) Prefetch(w io.Writer) (PrefetchResult, error) {
	w = out(w)
	recs, err := r.PatternRecords()
	if err != nil {
		return PrefetchResult{}, err
	}
	seq := ngram.NewSequencer()
	seq.Filter = logfmt.JSONOnly
	for i := range recs {
		seq.Observe(&recs[i])
	}
	model, _ := seq.TrainAndEvaluate(1, nil)

	replayJSON := func(fn func(*logfmt.Record)) {
		for i := range recs {
			if recs[i].IsJSON() {
				fn(&recs[i])
			}
		}
	}

	// This is the only baseline replay: the K sweep below runs the
	// prefetching side alone, and push rides the K=1 replay.
	cfg := prefetch.DefaultConfig()
	cmp := prefetch.Compare(model, cfg, replayJSON)
	res := PrefetchResult{
		Comparison:       cmp,
		BaselineHitRatio: cmp.Baseline.HitRatio(),
		PrefetchHitRatio: cmp.Prefetch.HitRatio(),
		Waste:            cmp.Prefetch.WasteRatio(),
		KSweep:           map[int][2]float64{},
		Push:             cmp.Prefetch.Push,
	}

	fmt.Fprintln(w, "Prefetching (§5.2 implication): edge hit ratio with ngram prefetch")
	var tb stats.Table
	tb.SetHeader("Configuration", "Hit ratio", "Prefetch waste")
	tb.AddRowf("baseline (no prefetch)", fmt.Sprintf("%.3f", res.BaselineHitRatio), "-")
	tb.AddRowf("prefetch K=1", fmt.Sprintf("%.3f", res.PrefetchHitRatio), fmt.Sprintf("%.2f", res.Waste))
	for _, k := range []int{2, 5} {
		kcfg := cfg
		kcfg.K = k
		swept := prefetch.Simulate(model, kcfg, replayJSON)
		hr, waste := swept.HitRatio(), swept.WasteRatio()
		res.KSweep[k] = [2]float64{hr, waste}
		tb.AddRowf(fmt.Sprintf("prefetch K=%d", k), fmt.Sprintf("%.3f", hr), fmt.Sprintf("%.2f", waste))
	}
	fmt.Fprint(w, tb.String())
	compareRow(w, "prefetching improves cacheable hit ratio", "qualitative",
		fmt.Sprintf("+%.1f points", (res.PrefetchHitRatio-res.BaselineHitRatio)*100))

	// Server push: the client-side variant of the same prediction.
	compareRow(w, "server push eliminates requests", "qualitative",
		fmt.Sprintf("%s of GETs (%d pushes, %.0f%% of pushed bytes used)",
			pct(res.Push.EliminationRate()), res.Push.Pushes,
			100*float64(res.Push.UsedBytes)/float64(max64(res.Push.PushedBytes, 1))))
	return res, nil
}

func max64(a, b int64) int64 {
	if a > b {
		return a
	}
	return b
}
