// Package ngram implements the backoff ngram request-prediction model of
// §5.2: transition counts from a history of up to N previously requested
// URLs to the next URL in a client flow, with stupid-backoff scoring and
// top-K prediction. Trained on client request flows split by client into
// train and test sets, it reproduces Table 3 (accuracy for raw and
// clustered URLs at K = 1, 5, 10).
package ngram

import (
	"cmp"
	"math"
	"slices"
)

// backoffAlpha discounts candidates taken from shorter contexts, the
// "stupid backoff" score of Brants et al.; the paper's lecture-notes
// reference describes the same family.
const backoffAlpha = 0.4

// topCap is how many continuations a context keeps in exact rank order.
// It is not a limit on K: PredictTopK answers a larger K exactly by
// ranking the spilled continuations at that call.
const topCap = 16

// Model is a backoff ngram model over URL tokens. The zero value is not
// usable; construct with NewModel. Model is not safe for concurrent use
// during Train or ObserveTransition; PredictTopK, Score and
// UnigramEntropyBits only read, so concurrent calls after training are
// safe.
type Model struct {
	order int

	vocab map[string]int32
	words []string

	// unigram is the empty context: how often each token was requested
	// next, whatever came before. Its ranking is the global popularity
	// that predictions fall back to.
	unigram followers
	// contexts holds every longer context, keyed (ctxKey) by the context
	// one token shorter and the token that extends it to the left: the
	// contexts a history matches are found shortest first, one lookup
	// each, and training creates a context only after the shorter one,
	// so a missing context ends the walk.
	contexts map[uint64]*followers
}

// ctxKey is the key of the context that puts id in front of the context
// numbered shorter (0: the empty context).
func ctxKey(shorter, id int32) uint64 {
	return uint64(uint32(shorter))<<32 | uint64(uint32(id))
}

// follow is one continuation of a context and how often it was seen.
type follow struct{ id, count int32 }

// rank orders continuations: the higher count first, the lower ID on a
// tie.
func rank(a, b follow) int {
	if a.count != b.count {
		return cmp.Compare(b.count, a.count)
	}
	return cmp.Compare(a.id, b.id)
}

// followers is one context's continuation counts, ranked as they are
// counted: top is the exact best topCap continuations in rank order,
// rest holds the others. Counts only grow, so a bump can only move its
// continuation forward; top is repaired by one insertion step and is
// never rebuilt.
type followers struct {
	total int
	top   []follow
	rest  map[int32]int32 // nil until the context has more than topCap continuations
	num   int32           // what ctxKey calls this context; contexts are numbered from 1
}

// bump counts one more occurrence of next.
func (f *followers) bump(next int32) {
	e := follow{id: next}
	i := f.index(next)
	if i >= 0 {
		e.count = f.top[i].count
	} else {
		e.count = f.rest[next]
	}
	if e.count == math.MaxInt32 {
		return // saturated; wrapping would break the rank order
	}
	e.count++
	f.total++
	switch {
	case i >= 0:
	case len(f.top) < topCap:
		i = len(f.top)
		f.top = append(f.top, e)
	default:
		// next is spilled or new. Everything in rest ranks behind the
		// last of top, so that is the only entry next can displace.
		i = topCap - 1
		last := f.top[i]
		if f.rest == nil {
			f.rest = make(map[int32]int32)
		}
		if rank(e, last) > 0 {
			f.rest[next] = e.count
			return
		}
		if e.count > 1 {
			delete(f.rest, next)
		}
		f.rest[last.id] = last.count
	}
	for ; i > 0 && rank(e, f.top[i-1]) < 0; i-- {
		f.top[i] = f.top[i-1]
	}
	f.top[i] = e
}

// index returns next's position in top, or -1.
func (f *followers) index(next int32) int {
	for i := range f.top {
		if f.top[i].id == next {
			return i
		}
	}
	return -1
}

// count returns how often next followed this context.
func (f *followers) count(next int32) int32 {
	if i := f.index(next); i >= 0 {
		return f.top[i].count
	}
	return f.rest[next]
}

// ranked returns the first k continuations in rank order, or all of them
// when there are fewer. Up to topCap that is a prefix of top; beyond it
// the spilled continuations are ranked for this call.
func (f *followers) ranked(k int) []follow {
	if k <= len(f.top) {
		return f.top[:k]
	}
	if len(f.rest) == 0 {
		return f.top
	}
	all := make([]follow, len(f.top), len(f.top)+len(f.rest))
	copy(all, f.top)
	for id, c := range f.rest {
		all = append(all, follow{id: id, count: c})
	}
	slices.SortFunc(all[len(f.top):], rank)
	if k < len(all) {
		all = all[:k]
	}
	return all
}

// NewModel returns a model that conditions on up to order previous
// requests (order >= 1; the paper's N).
func NewModel(order int) *Model {
	if order < 1 {
		order = 1
	}
	return &Model{
		order:    order,
		vocab:    make(map[string]int32),
		contexts: make(map[uint64]*followers),
	}
}

// Order returns the maximum history length.
func (m *Model) Order() int { return m.order }

// VocabSize returns the number of distinct tokens seen in training.
func (m *Model) VocabSize() int { return len(m.words) }

func (m *Model) intern(tok string) int32 {
	if id, ok := m.vocab[tok]; ok {
		return id
	}
	id := int32(len(m.words))
	m.vocab[tok] = id
	m.words = append(m.words, tok)
	return id
}

// stackOrder is the history length whose IDs and contexts a query or a
// single observed transition keeps on the stack; longer ones spill to
// the heap.
const stackOrder = 8

// Train folds one client request flow (a time-ordered URL sequence) into
// the model, updating transition counts for every context length from 1
// up to the model order (plus the unigram popularity prior).
func (m *Model) Train(seq []string) {
	if len(seq) < 2 {
		return
	}
	ids := make([]int32, len(seq))
	for i, s := range seq {
		ids[i] = m.intern(s)
	}
	for i := 1; i < len(ids); i++ {
		m.observe(ids[max(0, i-m.order):i], ids[i])
	}
}

// ObserveTransition folds one observed transition (history → next) into
// the model incrementally — the online-training primitive behind live
// traffic characterization, where requests arrive one at a time and the
// model must stay current while traffic flows. history is the client's
// previous requests, most recent last (it is truncated to the model
// order); transition counts are updated for every context length from 1
// up to len(history), plus the unigram popularity prior.
//
// Feeding each position of a flow through ObserveTransition with the
// full preceding history produces exactly the model Train builds from
// the whole sequence. Like Train, it is not safe for concurrent use.
func (m *Model) ObserveTransition(history []string, next string) {
	if len(history) > m.order {
		history = history[len(history)-m.order:]
	}
	var buf [stackOrder]int32
	ids := buf[:0]
	for _, h := range history {
		ids = append(ids, m.intern(h))
	}
	m.observe(ids, m.intern(next))
}

// observe counts next after every suffix of history (at most order IDs,
// most recent last), the empty one included.
func (m *Model) observe(history []int32, next int32) {
	// Unigram prior (empty context) captures global popularity, which
	// the paper notes program analysis misses.
	m.unigram.bump(next)
	shorter := int32(0)
	for i := len(history) - 1; i >= 0; i-- {
		key := ctxKey(shorter, history[i])
		f := m.contexts[key]
		if f == nil {
			f = &followers{num: int32(len(m.contexts)) + 1}
			m.contexts[key] = f
		}
		f.bump(next)
		shorter = f.num
	}
}

// UnigramEntropyBits returns the Shannon entropy (bits) of the model's
// unigram next-request distribution — the live predictability gauge's
// complement: low entropy means few objects dominate the stream and
// prefetching is cheap; entropy near log2(vocab) means the stream is
// close to unpredictable white noise. Returns 0 for an untrained model.
func (m *Model) UnigramEntropyBits() float64 {
	f := &m.unigram
	if f.total == 0 {
		return 0
	}
	total := float64(f.total)
	var bits float64
	add := func(c int32) {
		p := float64(c) / total
		bits -= p * math.Log2(p)
	}
	for _, e := range f.top {
		add(e.count)
	}
	for _, c := range f.rest {
		add(c)
	}
	return bits
}

// prediction is one candidate with its backoff score.
type prediction struct {
	id    int32
	score float64
}

// PredictTopK returns up to k most probable next URLs given the history
// (most recent last). A candidate's score is its best discounted
// relative frequency over the contexts visited, longest first; descent
// stops as soon as k candidates are collected, and what is still
// missing is filled from the global popularity ranking.
//
// Each context contributes only its first k continuations: one ranked
// below k others in the context where it scores best is outscored by
// all k of them, so the top k of the full candidate set lies in the
// union of those prefixes, and whether k distinct candidates exist yet
// comes out the same on the prefixes as on the full lists.
func (m *Model) PredictTopK(history []string, k int) []string {
	if k <= 0 {
		return nil
	}
	var ctxBuf [stackOrder]*followers
	ctxs, weight := m.match(ctxBuf[:0], history)
	var candBuf [3 * topCap]prediction // at most k a context; more spill to the heap
	cands := candBuf[:0]
	for i := len(ctxs) - 1; i >= 0 && len(cands) < k; i-- {
		f := ctxs[i]
		earlier := cands // one context's continuations are distinct
		for _, e := range f.ranked(k) {
			score := weight * float64(e.count) / float64(f.total)
			if j := indexOf(earlier, e.id); j < 0 {
				cands = append(cands, prediction{id: e.id, score: score})
			} else if score > cands[j].score {
				cands[j].score = score
			}
		}
		weight *= backoffAlpha
	}
	slices.SortFunc(cands, func(a, b prediction) int {
		return cmp.Or(cmp.Compare(b.score, a.score), cmp.Compare(a.id, b.id))
	})
	if len(cands) < k {
		// Fill the remainder in popularity order, skipping ids already
		// present. Fewer than k are, so the first k popular suffice.
		scored := cands
		for _, e := range m.unigram.ranked(k) {
			if len(cands) >= k {
				break
			}
			if indexOf(scored, e.id) < 0 {
				cands = append(cands, prediction{id: e.id})
			}
		}
	}
	if len(cands) == 0 {
		return nil
	}
	if k > len(cands) {
		k = len(cands)
	}
	out := make([]string, k)
	for i := range out {
		out[i] = m.words[cands[i].id]
	}
	return out
}

// indexOf returns id's position in cands, or -1.
func indexOf(cands []prediction, id int32) int {
	for i := range cands {
		if cands[i].id == id {
			return i
		}
	}
	return -1
}

// Score returns the stupid-backoff score of next given the history; 0
// means the model has never seen the token in any context. Scores are
// comparable within one model and usable for anomaly ranking, but are
// not normalized probabilities across backoff levels.
func (m *Model) Score(history []string, next string) float64 {
	nid, ok := m.vocab[next]
	if !ok {
		return 0
	}
	var ctxBuf [stackOrder]*followers
	ctxs, weight := m.match(ctxBuf[:0], history)
	for i := len(ctxs); i >= 0; i-- {
		f := &m.unigram
		if i > 0 {
			f = ctxs[i-1]
		}
		if c := f.count(nid); c > 0 {
			return weight * float64(c) / float64(f.total)
		}
		weight *= backoffAlpha
	}
	return 0
}

// match appends to buf the contexts that exist for the history's last
// order tokens, by length: ctxs[0] is the last token alone, ctxs[1] the
// last two, as far as training has seen them. weight is the backoff
// discount of the longest of them: every length the history offers and
// training never saw costs one backoffAlpha. A history with an unknown
// token matches nothing, undiscounted, which leaves the empty context.
func (m *Model) match(buf []*followers, history []string) (ctxs []*followers, weight float64) {
	if len(history) > m.order {
		history = history[len(history)-m.order:]
	}
	var idBuf [stackOrder]int32
	ids := idBuf[:0]
	for _, h := range history {
		id, ok := m.vocab[h]
		if !ok {
			return nil, 1
		}
		ids = append(ids, id)
	}
	ctxs = buf
	shorter := int32(0)
	for i := len(ids) - 1; i >= 0; i-- {
		f := m.contexts[ctxKey(shorter, ids[i])]
		if f == nil {
			break
		}
		ctxs = append(ctxs, f)
		shorter = f.num
	}
	weight = 1
	for n := len(ids); n > len(ctxs); n-- {
		weight *= backoffAlpha
	}
	return ctxs, weight
}

// EvalResult is the outcome of Evaluate.
type EvalResult struct {
	// Predictions is the number of next-request predictions attempted.
	Predictions int
	// Hits is how many times the true next request was in the top-K set.
	Hits int
}

// Accuracy returns Hits/Predictions (0 for an empty evaluation).
func (e EvalResult) Accuracy() float64 {
	if e.Predictions == 0 {
		return 0
	}
	return float64(e.Hits) / float64(e.Predictions)
}

// Evaluate replays test client flows through the model: at each position
// past the first, it predicts the top-K next URLs from the previous
// requests and scores a hit when the set contains the actual next URL.
func Evaluate(m *Model, testSeqs [][]string, k int) EvalResult {
	var res EvalResult
	for _, seq := range testSeqs {
		for i := 1; i < len(seq); i++ {
			lo := i - m.order
			if lo < 0 {
				lo = 0
			}
			preds := m.PredictTopK(seq[lo:i], k)
			res.Predictions++
			for _, p := range preds {
				if p == seq[i] {
					res.Hits++
					break
				}
			}
		}
	}
	return res
}
