package prefetch

import (
	"time"

	"repro/internal/edge"
	"repro/internal/logfmt"
	"repro/internal/ngram"
)

// TimedSimulator extends the prefetch simulation with the paper's §5.2
// future-work idea: use predicted interarrival times. A prefetched
// object is only useful if the client asks for it before the cache TTL
// expires, so predictions whose expected gap exceeds MaxGap are skipped,
// trading a little hit ratio for less wasted origin traffic.
type TimedSimulator struct {
	sim *Simulator
	tm  *ngram.TimedModel
	// MaxGap is the largest expected interarrival worth prefetching
	// for; predictions with a known longer gap are skipped. Zero
	// disables filtering.
	MaxGap time.Duration

	// Skipped counts predictions suppressed by the gap filter.
	Skipped int64
}

// NewTimedSimulator wraps a trained timed model. MaxGap defaults to the
// cache TTL (a prefetch that outlives the TTL can never hit).
func NewTimedSimulator(tm *ngram.TimedModel, cfg Config) *TimedSimulator {
	cfg.sanitize()
	ts := &TimedSimulator{
		sim:    NewSimulator(tm.Model, cfg),
		tm:     tm,
		MaxGap: cfg.TTL,
	}
	return ts
}

// Observe replays one record, prefetching only predictions expected to
// arrive within MaxGap.
func (ts *TimedSimulator) Observe(r *logfmt.Record) {
	for _, pred := range ts.tm.PredictTimed(ts.sim.observe(r), ts.sim.cfg.K) {
		if ts.MaxGap > 0 && pred.Gap > ts.MaxGap {
			ts.Skipped++
			continue
		}
		ts.sim.prefetch(pred.URL, r.Time)
	}
}

// Result returns the accumulated simulation result.
func (ts *TimedSimulator) Result() Result { return ts.sim.Result() }

// TimedComparison contrasts untimed and gap-filtered prefetching over
// the same stream.
type TimedComparison struct {
	Baseline edge.ReplayResult
	Untimed  Result
	Timed    Result
	// Skipped is the number of predictions the gap filter suppressed.
	Skipped int64
}

// CompareTimed replays records three ways: no prefetch, plain prefetch,
// and gap-filtered prefetch.
func CompareTimed(tm *ngram.TimedModel, cfg Config, records func(func(*logfmt.Record))) TimedComparison {
	cfg.sanitize()
	base := Compare(tm.Model, cfg, records)
	ts := NewTimedSimulator(tm, cfg)
	records(func(r *logfmt.Record) { ts.Observe(r) })
	return TimedComparison{
		Baseline: base.Baseline,
		Untimed:  base.Prefetch,
		Timed:    ts.Result(),
		Skipped:  ts.Skipped,
	}
}
