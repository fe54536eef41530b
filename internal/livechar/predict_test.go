package livechar

import (
	"fmt"
	"testing"

	"repro/internal/stats"
)

// TestPredictorBoundedTables holds the predictor to its two bounds on a
// stream that would outgrow both: every client is new and sends three
// requests, each to a URL never seen before. The client table stays
// within maxClients and the vocabulary within maxVocab, a cap that the
// tokens each client adds (two, then one) step over rather than land on.
// Every scored transition either trained the model, which then grew
// since its next URL is new, or was counted in vocabDrops.
func TestPredictorBoundedTables(t *testing.T) {
	const maxVocab, maxClients = 49, 8
	p := newPredictor(3, 2, maxVocab, maxClients)
	trained, url := int64(0), 0
	for client := uint64(0); client < 200; client++ {
		for i := 0; i < 3; i++ {
			vocab := p.model.VocabSize()
			p.observe(client, fmt.Sprintf("https://x.com/obj/%d", url))
			url++
			if p.model.VocabSize() > vocab {
				trained++
			}
			if n := len(p.histories); n > maxClients {
				t.Fatalf("client %d: %d client histories, cap %d", client, n, maxClients)
			}
			if n := p.model.VocabSize(); n > maxVocab {
				t.Fatalf("client %d: vocabulary %d, cap %d", client, n, maxVocab)
			}
		}
	}
	if p.vocabDrops == 0 || trained+p.vocabDrops != p.observations {
		t.Errorf("%d transitions scored, %d trained, %d counted as vocab drops; want every untrained one counted",
			p.observations, trained, p.vocabDrops)
	}
}

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
