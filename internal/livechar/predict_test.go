package livechar

import (
	"fmt"
	"testing"

	"repro/internal/stats"
)

// BenchmarkPredictorObserve times the consumer's prediction step per
// event on a predictor that has already seen 150 000 events of a
// cache-busting stream — the stream of internal/ngram's
// BenchmarkPredictOnline: 64 clients, 30 % of requests to a URL never
// seen before (until 60 000 such URLs exist, then drawn again at random
// so the vocabulary stays under maxVocab), the rest Zipf over 5 000
// objects. livechar.observe_ns in the ladder times the tap's enqueue
// only; this is the cost behind it.
func BenchmarkPredictorObserve(b *testing.B) {
	cfg := Config{}.withDefaults()
	p := newPredictor(cfg.NgramOrder, cfg.PredictK, maxVocab, cfg.MaxClients)
	rng, zipf, fresh := stats.NewRNG(20), stats.NewZipf(5000, 1.1), 0
	step := func() {
		client := uint64(rng.Intn(64))
		switch {
		case !rng.Bool(0.3):
			p.observe(client, fmt.Sprintf("https://x.com/obj/%d", zipf.Sample(rng)))
		case fresh < 60000:
			p.observe(client, fmt.Sprintf("https://x.com/obj/0?bust=%d", fresh))
			fresh++
		default:
			p.observe(client, fmt.Sprintf("https://x.com/obj/0?bust=%d", rng.Intn(fresh)))
		}
	}
	for i := 0; i < 150000; i++ {
		step()
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		step()
	}
	b.StopTimer()
	if p.vocabDrops > 0 {
		b.Fatalf("%d transitions dropped: the stream outgrew maxVocab", p.vocabDrops)
	}
}
