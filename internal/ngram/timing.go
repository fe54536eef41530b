package ngram

import (
	"math"
	"sort"
	"time"
)

// The paper closes §5.2 noting that "future work can also take into
// account request interarrival time to better inform prediction
// systems". TimedModel implements that extension: alongside the
// transition counts it learns the typical gap between consecutive
// requests per (previous, next) pair, so a prefetcher can skip
// predictions that would expire from cache before the client asks.

// TimedModel augments Model with per-transition interarrival estimates.
// Like Model, it is not safe for concurrent use during training.
type TimedModel struct {
	*Model
	gaps map[gapKey]*gapStats
}

type gapKey struct{ prev, next int32 }

// gapStats tracks the log-domain mean of observed gaps; interarrival
// times are heavy-tailed, so the geometric mean is a stabler "typical
// gap" than the arithmetic mean.
type gapStats struct {
	n      int
	sumLog float64
}

func (g *gapStats) add(d time.Duration) {
	s := d.Seconds()
	if s < 1e-3 {
		s = 1e-3
	}
	g.n++
	g.sumLog += math.Log(s)
}

func (g *gapStats) typical() time.Duration {
	if g.n == 0 {
		return 0
	}
	return time.Duration(math.Exp(g.sumLog/float64(g.n)) * float64(time.Second))
}

// NewTimedModel returns a timed model conditioning on up to order
// previous requests.
func NewTimedModel(order int) *TimedModel {
	return &TimedModel{
		Model: NewModel(order),
		gaps:  make(map[gapKey]*gapStats),
	}
}

// Step is one request in a timed client flow.
type Step struct {
	URL  string
	Time time.Time
}

// TrainTimed folds one time-ordered client flow into both the transition
// counts and the gap estimates.
func (tm *TimedModel) TrainTimed(flow []Step) {
	if len(flow) < 2 {
		return
	}
	urls := make([]string, len(flow))
	for i, s := range flow {
		urls[i] = s.URL
	}
	tm.Train(urls)
	for i := 1; i < len(flow); i++ {
		prev := tm.vocab[flow[i-1].URL]
		next := tm.vocab[flow[i].URL]
		key := gapKey{prev: prev, next: next}
		g := tm.gaps[key]
		if g == nil {
			g = &gapStats{}
			tm.gaps[key] = g
		}
		g.add(flow[i].Time.Sub(flow[i-1].Time))
	}
}

// ExpectedGap returns the typical interarrival between prev and next, or
// ok=false when the transition was never observed.
func (tm *TimedModel) ExpectedGap(prev, next string) (time.Duration, bool) {
	pid, ok := tm.vocab[prev]
	if !ok {
		return 0, false
	}
	nid, ok := tm.vocab[next]
	if !ok {
		return 0, false
	}
	g, ok := tm.gaps[gapKey{prev: pid, next: nid}]
	if !ok || g.n == 0 {
		return 0, false
	}
	return g.typical(), true
}

// SplitFlows is the timed analogue of Split: per-client (URL, time)
// flows in time order, partitioned into train and test sets by the same
// deterministic client hash. Clients with fewer than two requests are
// dropped.
func (s *Sequencer) SplitFlows() (train, test [][]Step) {
	testFrac := s.TestFraction
	if testFrac <= 0 || testFrac >= 1 {
		testFrac = 0.25
	}
	threshold := uint64(float64(1<<32) * testFrac)
	for _, k := range s.sortedKeys() {
		cs := s.clients[k]
		if len(cs.urls) < 2 {
			continue
		}
		flow := cs.sortedSteps()
		// Mix the two key halves; take the low 32 bits as the split
		// coordinate.
		h := (k.ClientID*0x9e3779b97f4a7c15 ^ k.UAHash) & 0xffffffff
		if h < threshold {
			test = append(test, flow)
		} else {
			train = append(train, flow)
		}
	}
	return train, test
}

// sortedSteps returns the client's (URL, time) steps in time order
// without mutating the accumulation state.
func (c *clientSeq) sortedSteps() []Step {
	idx := make([]int, len(c.urls))
	for i := range idx {
		idx[i] = i
	}
	sort.SliceStable(idx, func(a, b int) bool { return c.times[idx[a]].Before(c.times[idx[b]]) })
	out := make([]Step, len(idx))
	for i, j := range idx {
		out[i] = Step{URL: c.urls[j], Time: c.times[j]}
	}
	return out
}
