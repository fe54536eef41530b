package ngram

import (
	"fmt"
	"testing"

	"repro/internal/stats"
)

func benchSeqs(n, vocab, length int) [][]string {
	rng := stats.NewRNG(5)
	urls := make([]string, vocab)
	for i := range urls {
		urls[i] = fmt.Sprintf("https://x.com/obj/%d", i)
	}
	out := make([][]string, n)
	for c := range out {
		seq := make([]string, length)
		cur := rng.Intn(vocab)
		for i := range seq {
			if rng.Bool(0.5) {
				cur = (cur + 1) % vocab
			} else {
				cur = rng.Intn(vocab)
			}
			seq[i] = urls[cur]
		}
		out[c] = seq
	}
	return out
}

func BenchmarkTrain(b *testing.B) {
	seqs := benchSeqs(100, 500, 40)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m := NewModel(1)
		for _, s := range seqs {
			m.Train(s)
		}
	}
}

func BenchmarkPredictTopKOrders(b *testing.B) {
	seqs := benchSeqs(300, 500, 40)
	for _, order := range []int{1, 3, 5} {
		m := NewModel(order)
		for _, s := range seqs {
			m.Train(s)
		}
		hist := seqs[0][:order]
		b.Run(fmt.Sprintf("order-%d", order), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				m.PredictTopK(hist, 10)
			}
		})
	}
}

func BenchmarkScore(b *testing.B) {
	seqs := benchSeqs(300, 500, 40)
	m := NewModel(1)
	for _, s := range seqs {
		m.Train(s)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m.Score(seqs[0][:1], seqs[0][1])
	}
}

func BenchmarkEvaluate(b *testing.B) {
	seqs := benchSeqs(300, 500, 40)
	m := NewModel(1)
	for _, s := range seqs {
		m.Train(s)
	}
	test := seqs[:30]
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		Evaluate(m, test, 10)
	}
}

// hostileStream is a seeded request stream shaped like the live plane's
// input under a cache-busting attack: 64 clients, 30 % of requests to a
// URL never seen before (until 60 000 such URLs exist; then they are
// drawn again at random, which keeps the vocabulary under livechar's
// maxVocab), the rest Zipf over 5 000 objects.
// internal/livechar's BenchmarkPredictorObserve draws the same stream.
type hostileStream struct {
	rng   *stats.RNG
	zipf  *stats.Zipf
	fresh int
}

func newHostileStream() *hostileStream {
	return &hostileStream{rng: stats.NewRNG(20), zipf: stats.NewZipf(5000, 1.1)}
}

func (s *hostileStream) next() (client int, url string) {
	client = s.rng.Intn(64)
	switch {
	case !s.rng.Bool(0.3):
		url = fmt.Sprintf("https://x.com/obj/%d", s.zipf.Sample(s.rng))
	case s.fresh < 60000:
		url = fmt.Sprintf("https://x.com/obj/0?bust=%d", s.fresh)
		s.fresh++
	default:
		url = fmt.Sprintf("https://x.com/obj/0?bust=%d", s.rng.Intn(s.fresh))
	}
	return client, url
}

// BenchmarkPredictOnline times what livechar's consumer does per
// request — predict from the client's history, then train on what was
// requested — on a model already holding 150 000 transitions of a
// hostile stream. The batch benchmarks above never train between
// predictions, so they cannot see a cost that training causes in the
// next prediction.
func BenchmarkPredictOnline(b *testing.B) {
	const order, k = 3, 5
	m := NewModel(order)
	s := newHostileStream()
	var histories [64][]string
	step := func(predict bool) {
		c, url := s.next()
		h := histories[c]
		if len(h) > 0 {
			if predict {
				m.PredictTopK(h, k)
			}
			m.ObserveTransition(h, url)
		}
		if len(h) == order {
			h = h[:copy(h, h[1:])]
		}
		histories[c] = append(h, url)
	}
	for i := 0; i < 150000; i++ {
		step(false)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		step(true)
	}
}
