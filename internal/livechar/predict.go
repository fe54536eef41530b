package livechar

import "repro/internal/ngram"

// This file wires the §5.2 backoff ngram model into the live plane as
// an online predictability gauge: for every request the predictor first
// asks the model for its top-K next-URL guesses given the client's
// recent history (scoring a hit when the actual URL is among them),
// then trains the model on the observed transition. The resulting hit
// rate is a live estimate of Table 3's prediction accuracy, and the
// model's unigram entropy is the complementary "how concentrated is
// the stream" gauge.

// predictor drives online ngram training and hit-rate accounting. Not
// safe for concurrent use; the livechar consumer owns it.
type predictor struct {
	model      *ngram.Model
	order      int
	k          int
	maxVocab   int
	maxClients int

	histories map[uint64][]string

	observations int64 // positions with history: each is predicted, then trained on
	hits         int64
	vocabDrops   int64 // transitions skipped because the vocab is full
}

func newPredictor(order, k, maxVocab, maxClients int) *predictor {
	return &predictor{
		model:      ngram.NewModel(order),
		order:      order,
		k:          k,
		maxVocab:   maxVocab,
		maxClients: maxClients,
		histories:  make(map[uint64][]string),
	}
}

func (p *predictor) observe(client uint64, url string) {
	h, ok := p.histories[client]
	if !ok && len(p.histories) >= p.maxClients {
		// Client-table budget exhausted: evict an arbitrary flow (map
		// iteration order). Losing one history only costs that flow a
		// cold start; the bound is what matters.
		for victim := range p.histories {
			delete(p.histories, victim)
			break
		}
	}
	if len(h) > 0 {
		// Every transition is scored before it trains. The model ranks
		// each context's continuations as it counts them, so a
		// prediction reads a few short lists and training in between
		// costs the next one nothing.
		p.observations++
		for _, cand := range p.model.PredictTopK(h, p.k) {
			if cand == url {
				p.hits++
				break
			}
		}
		// Training interns at most the history and the URL, so a
		// transition trains only if all of them fit under the cap.
		if p.model.VocabSize()+len(h)+1 <= p.maxVocab {
			p.model.ObserveTransition(h, url)
		} else {
			p.vocabDrops++
		}
	}
	if len(h) >= p.order {
		copy(h, h[len(h)-p.order+1:])
		h = h[:p.order-1]
	}
	p.histories[client] = append(h, url)
}

func (p *predictor) hitRate() float64 {
	if p.observations == 0 {
		return 0
	}
	return float64(p.hits) / float64(p.observations)
}

// PredictStats is the live predictability view published on /charz.
type PredictStats struct {
	// Eligible is how many requests were prediction candidates: every
	// request from a client with at least one prior request.
	Eligible int64 `json:"eligible"`
	// Observations is how many next-request predictions were scored.
	// Every candidate is, so it equals Eligible; the schema keeps both.
	Observations int64 `json:"observations"`
	// Hits is how many times the actual URL was in the top-K guess set.
	Hits int64 `json:"hits"`
	// HitRate is Hits/Observations — the live Table 3 accuracy estimate.
	HitRate float64 `json:"hit_rate"`
	// K is the guess-set size the hit rate was measured at.
	K int `json:"k"`
	// EntropyBits is the Shannon entropy of the model's unigram
	// next-request distribution: low means few objects dominate.
	EntropyBits float64 `json:"entropy_bits"`
	// Vocab is the number of distinct URLs the model has interned.
	Vocab int `json:"vocab"`
	// VocabDrops counts transitions skipped after the vocab budget
	// filled (the model stops growing, predictions continue).
	VocabDrops int64 `json:"vocab_drops,omitempty"`
}

func (p *predictor) stats() PredictStats {
	return PredictStats{
		Eligible:     p.observations,
		Observations: p.observations,
		Hits:         p.hits,
		HitRate:      p.hitRate(),
		K:            p.k,
		EntropyBits:  p.model.UnigramEntropyBits(),
		Vocab:        p.model.VocabSize(),
		VocabDrops:   p.vocabDrops,
	}
}
