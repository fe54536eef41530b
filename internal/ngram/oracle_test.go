package ngram

import (
	"encoding/binary"
	"fmt"
	"math"
	"slices"
	"sort"
	"testing"

	"repro/internal/stats"
)

// oracleModel is Model as it stood before contexts kept their own
// ranking: one count map per context, candidates collected and sorted at
// every prediction, and the popularity fallback a cached sort of the
// whole unigram vocabulary. It is the definition Model must reproduce.
type oracleModel struct {
	order int

	vocab map[string]int32
	words []string

	// contexts maps an encoded token-ID context (length 0..order) to
	// its continuation counts.
	contexts map[string]*oracleFollowers

	// popCache is the unigram (global popularity) ranking, sorted by
	// descending count; rebuilt lazily after training. It bounds the
	// cost of backoff to the empty context, which otherwise scans the
	// whole vocabulary per prediction.
	popCache   []oraclePrediction
	popVersion int
	version    int
}

type oracleFollowers struct {
	counts map[int32]int
	total  int
}

func newOracleModel(order int) *oracleModel {
	if order < 1 {
		order = 1
	}
	return &oracleModel{
		order:    order,
		vocab:    make(map[string]int32),
		contexts: make(map[string]*oracleFollowers),
	}
}

func (m *oracleModel) VocabSize() int { return len(m.words) }

func (m *oracleModel) intern(tok string) int32 {
	if id, ok := m.vocab[tok]; ok {
		return id
	}
	id := int32(len(m.words))
	m.vocab[tok] = id
	m.words = append(m.words, tok)
	return id
}

// oracleEncode packs a context window of token IDs into a map key.
func oracleEncode(ids []int32) string {
	buf := make([]byte, 4*len(ids))
	for i, id := range ids {
		binary.LittleEndian.PutUint32(buf[4*i:], uint32(id))
	}
	return string(buf)
}

func (m *oracleModel) Train(seq []string) {
	if len(seq) < 2 {
		return
	}
	ids := make([]int32, len(seq))
	for i, s := range seq {
		ids[i] = m.intern(s)
	}
	for i := 1; i < len(ids); i++ {
		next := ids[i]
		// Unigram prior (empty context) captures global popularity,
		// which the paper notes program analysis misses.
		m.bump("", next)
		for n := 1; n <= m.order && n <= i; n++ {
			m.bump(oracleEncode(ids[i-n:i]), next)
		}
	}
}

func (m *oracleModel) ObserveTransition(history []string, next string) {
	if len(history) > m.order {
		history = history[len(history)-m.order:]
	}
	ids := make([]int32, len(history))
	for i, h := range history {
		ids[i] = m.intern(h)
	}
	nid := m.intern(next)
	m.bump("", nid)
	for n := 1; n <= len(ids); n++ {
		m.bump(oracleEncode(ids[len(ids)-n:]), nid)
	}
}

func (m *oracleModel) UnigramEntropyBits() float64 {
	f := m.contexts[""]
	if f == nil || f.total == 0 {
		return 0
	}
	total := float64(f.total)
	var bits float64
	for _, c := range f.counts {
		if c > 0 {
			p := float64(c) / total
			bits -= p * math.Log2(p)
		}
	}
	return bits
}

func (m *oracleModel) bump(ctx string, next int32) {
	f := m.contexts[ctx]
	if f == nil {
		f = &oracleFollowers{counts: make(map[int32]int)}
		m.contexts[ctx] = f
	}
	f.counts[next]++
	f.total++
	m.version++
}

// popularity returns the cached global ranking, rebuilding if stale.
func (m *oracleModel) popularity() []oraclePrediction {
	if m.popCache != nil && m.popVersion == m.version {
		return m.popCache
	}
	f := m.contexts[""]
	if f == nil {
		return nil
	}
	cands := make([]oraclePrediction, 0, len(f.counts))
	for id, c := range f.counts {
		cands = append(cands, oraclePrediction{id: id, score: float64(c) / float64(f.total)})
	}
	sort.Slice(cands, func(i, j int) bool {
		if cands[i].score != cands[j].score {
			return cands[i].score > cands[j].score
		}
		return cands[i].id < cands[j].id
	})
	m.popCache = cands
	m.popVersion = m.version
	return cands
}

// oraclePrediction is one candidate with its backoff score.
type oraclePrediction struct {
	id    int32
	score float64
}

func (m *oracleModel) PredictTopK(history []string, k int) []string {
	if k <= 0 {
		return nil
	}
	ids, ok := m.lookupHistory(history)
	if !ok {
		// Unseen tokens in history: fall back entirely to popularity.
		ids = nil
	}
	best := make(map[int32]float64, k*2)
	weight := 1.0
	for n := min(m.order, len(ids)); n >= 1 && len(best) < k; n-- {
		f := m.contexts[oracleEncode(ids[len(ids)-n:])]
		if f != nil {
			for id, c := range f.counts {
				score := weight * float64(c) / float64(f.total)
				if score > best[id] {
					best[id] = score
				}
			}
		}
		weight *= backoffAlpha
	}
	cands := make([]oraclePrediction, 0, len(best)+k)
	for id, s := range best {
		cands = append(cands, oraclePrediction{id: id, score: s})
	}
	sort.Slice(cands, func(i, j int) bool {
		if cands[i].score != cands[j].score {
			return cands[i].score > cands[j].score
		}
		return cands[i].id < cands[j].id
	})
	if len(cands) < k {
		// Fill the remainder from global popularity, skipping ids
		// already present.
		for _, p := range m.popularity() {
			if len(cands) >= k {
				break
			}
			if _, seen := best[p.id]; seen {
				continue
			}
			cands = append(cands, oraclePrediction{id: p.id, score: weight * p.score})
		}
	}
	if len(cands) == 0 {
		return nil
	}
	if k > len(cands) {
		k = len(cands)
	}
	out := make([]string, k)
	for i := 0; i < k; i++ {
		out[i] = m.words[cands[i].id]
	}
	return out
}

func (m *oracleModel) Score(history []string, next string) float64 {
	nid, ok := m.vocab[next]
	if !ok {
		return 0
	}
	ids, _ := m.lookupHistory(history)
	weight := 1.0
	for n := min(m.order, len(ids)); n >= 0; n-- {
		var key string
		if n > 0 {
			key = oracleEncode(ids[len(ids)-n:])
		}
		if f := m.contexts[key]; f != nil {
			if c := f.counts[nid]; c > 0 {
				return weight * float64(c) / float64(f.total)
			}
		}
		weight *= backoffAlpha
	}
	return 0
}

// lookupHistory resolves history tokens to IDs, truncating to the model
// order; ok is false if any token in the retained window is unknown.
func (m *oracleModel) lookupHistory(history []string) ([]int32, bool) {
	if len(history) > m.order {
		history = history[len(history)-m.order:]
	}
	ids := make([]int32, 0, len(history))
	for _, h := range history {
		id, ok := m.vocab[h]
		if !ok {
			return nil, false
		}
		ids = append(ids, id)
	}
	return ids, true
}

// diffKs are the guess-set sizes the differential run asks for: both
// sides of topCap, so prefixes of top and the ranked spill are both
// compared.
var diffKs = [...]int{1, 3, 5, 10, 16, 17, 40}

// diffStep is the size of one step of a differential script:
//
//	byte 0  the token requested
//	byte 1  bits 0-2 index diffKs, bit 3 puts a never-seen token into
//	        the queried history, bits 4-6 truncate it, bit 7 skips the
//	        query
//	byte 2  the client (of 8) making the request
const diffStep = 3

// runAgainstOracle plays a script into a Model and an oracleModel side
// by side — each step queries both with the client's history, then
// trains both on the transition — and fails on the first answer that
// differs.
func runAgainstOracle(t testing.TB, order int, script []byte) {
	got, want := NewModel(order), newOracleModel(order)
	var histories [8][]string
	compare := func(step int, h []string, k int, next string) {
		t.Helper()
		g, w := got.PredictTopK(h, k), want.PredictTopK(h, k)
		if !slices.Equal(g, w) {
			t.Fatalf("step %d order %d: PredictTopK(%v, %d) = %v, oracle %v", step, order, h, k, g, w)
		}
		for _, n := range []string{next, "never-seen"} {
			if g, w := got.Score(h, n), want.Score(h, n); g != w {
				t.Fatalf("step %d order %d: Score(%v, %q) = %v, oracle %v", step, order, h, n, g, w)
			}
		}
	}
	for i := 0; i+diffStep <= len(script); i += diffStep {
		tok := fmt.Sprintf("u%d", script[i])
		flags := script[i+1]
		h := histories[script[i+2]%8]
		if flags&0x80 == 0 {
			q := slices.Clone(h)
			if keep := int(flags >> 4 & 7); keep < len(q) {
				q = q[len(q)-keep:]
			}
			if flags&0x08 != 0 {
				q = append(q, "never-seen")
			}
			compare(i/diffStep, q, diffKs[int(flags&7)%len(diffKs)], tok)
		}
		if len(h) > 0 {
			got.ObserveTransition(h, tok)
			want.ObserveTransition(h, tok)
		}
		// One token more than the order, so the models truncate too.
		if len(h) > order {
			h = h[1:]
		}
		histories[script[i+2]%8] = append(h, tok)
	}
	// Train must build what ObserveTransition builds.
	for _, h := range histories {
		got.Train(h)
		want.Train(h)
	}
	for _, h := range histories {
		for _, k := range diffKs {
			compare(len(script)/diffStep, h, k, "u0")
		}
	}
	if got.VocabSize() != want.VocabSize() {
		t.Fatalf("order %d: vocab %d, oracle %d", order, got.VocabSize(), want.VocabSize())
	}
	if g, w := got.UnigramEntropyBits(), want.UnigramEntropyBits(); math.Abs(g-w) > 1e-9 {
		t.Fatalf("order %d: entropy %v, oracle %v", order, g, w)
	}
}

// diffScript draws a script of Zipf-distributed requests over vocab
// tokens from seed.
func diffScript(seed uint64, vocab, steps int) []byte {
	rng := stats.NewRNG(seed)
	zipf := stats.NewZipf(vocab, 1.1)
	script := make([]byte, 0, diffStep*steps)
	for i := 0; i < steps; i++ {
		script = append(script, byte(zipf.Sample(rng)), byte(rng.Intn(256)), byte(rng.Intn(8)))
	}
	return script
}

// diffShape picks the order (1-5) and vocabulary (5-200) of one seed's
// differential run.
func diffShape(seed uint64) (order, vocab int) {
	rng := stats.NewRNG(seed ^ 0x5eed)
	return 1 + rng.Intn(5), 5 + rng.Intn(196)
}

func TestModelAgainstOracle(t *testing.T) {
	for seed := uint64(1); seed <= 30; seed++ {
		order, vocab := diffShape(seed)
		runAgainstOracle(t, order, diffScript(seed, vocab, 4000))
	}
}

func FuzzModelAgainstOracle(f *testing.F) {
	for seed := uint64(1); seed <= 30; seed++ {
		order, vocab := diffShape(seed)
		f.Add(uint8(order), diffScript(seed, vocab, 300))
	}
	f.Fuzz(func(t *testing.T, order uint8, script []byte) {
		runAgainstOracle(t, 1+int(order)%5, script)
	})
}
