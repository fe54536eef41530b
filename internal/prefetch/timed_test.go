package prefetch

import (
	"testing"
	"time"

	"repro/internal/logfmt"
	"repro/internal/ngram"
)

// timedWorkload builds clients that always fetch b right after a (2 s
// gap) and fetch c a long time after b (10 min gap, far beyond the 60 s
// TTL). A gap-aware prefetcher should prefetch b but skip c.
func timedWorkload(clients int) []logfmt.Record {
	var recs []logfmt.Record
	at := t0
	for c := 0; c < clients; c++ {
		for rep := 0; rep < 3; rep++ {
			for _, step := range []struct {
				url string
				gap time.Duration
			}{
				{"https://x.com/a", 5 * time.Minute},
				{"https://x.com/b", 2 * time.Second},
				{"https://x.com/c", 10 * time.Minute},
			} {
				at = at.Add(step.gap)
				recs = append(recs, logfmt.Record{
					Time: at, ClientID: uint64(c), Method: "GET", URL: step.url,
					UserAgent: "App/1.0 (iPhone)", MIMEType: "application/json",
					Status: 200, Bytes: 400, Cache: logfmt.CacheMiss,
				})
			}
		}
	}
	return recs
}

func trainTimed(recs []logfmt.Record) *ngram.TimedModel {
	s := ngram.NewSequencer()
	s.TestFraction = 0.01
	for i := range recs {
		s.Observe(&recs[i])
	}
	train, _ := s.SplitFlows()
	tm := ngram.NewTimedModel(1)
	for _, flow := range train {
		tm.TrainTimed(flow)
	}
	return tm
}

// replayAll feeds recs to fn in order.
func replayAll(recs []logfmt.Record) func(func(*logfmt.Record)) {
	return func(fn func(*logfmt.Record)) {
		for i := range recs {
			fn(&recs[i])
		}
	}
}

func TestTimedPrefetchSkipsSlowTransitions(t *testing.T) {
	recs := timedWorkload(6)
	tm := trainTimed(recs)
	cfg := DefaultConfig()
	cfg.K = 1
	// The same model, once with its gap estimates and once without.
	timed, untimed := Simulate(tm, cfg, replayAll(recs)), Simulate(tm.Model, cfg, replayAll(recs))
	// The timed simulation must waste less than the untimed one.
	if timed.WasteRatio() >= untimed.WasteRatio() {
		t.Errorf("timed waste %.2f not below untimed %.2f", timed.WasteRatio(), untimed.WasteRatio())
	}
	// And it must not lose the useful prefetches (a -> b hits).
	if timed.PrefetchedHits < untimed.PrefetchedHits {
		t.Errorf("timed lost useful hits: %d vs %d", timed.PrefetchedHits, untimed.PrefetchedHits)
	}
	if timed.PrefetchedBytes >= untimed.PrefetchedBytes {
		t.Errorf("timed bytes %d not below untimed %d", timed.PrefetchedBytes, untimed.PrefetchedBytes)
	}
	// Push skips the same slow predictions.
	if timed.Push.Pushes >= untimed.Push.Pushes {
		t.Errorf("timed pushes %d not below untimed %d", timed.Push.Pushes, untimed.Push.Pushes)
	}
}

func TestTimedPrefetchDisabledFilter(t *testing.T) {
	// A predictor without gap estimates is never filtered: the bare model
	// prefetches exactly what an unfiltered simulation would.
	recs := timedWorkload(3)
	tm := trainTimed(recs)
	var plain Predictor = tm.Model
	if _, ok := plain.(gapPredictor); ok {
		t.Fatal("the bare model has gap estimates")
	}
	timed, untimed := Simulate(tm, DefaultConfig(), replayAll(recs)), Simulate(plain, DefaultConfig(), replayAll(recs))
	if untimed.PrefetchesIssued == 0 || untimed.PrefetchesIssued <= timed.PrefetchesIssued {
		t.Errorf("untimed issued %d prefetches, timed %d", untimed.PrefetchesIssued, timed.PrefetchesIssued)
	}
}

func TestTimedSimulatorDefaultsMaxGapToTTL(t *testing.T) {
	// b follows a after 40 s: inside a 42 s TTL it is prefetched, past a
	// 38 s one it is skipped. The TTL is the only threshold.
	tm := ngram.NewTimedModel(1)
	tm.TrainTimed([]ngram.Step{{URL: "https://x.com/a", Time: t0}, {URL: "https://x.com/b", Time: t0.Add(40 * time.Second)}})
	a := getRec(1, "https://x.com/a", t0)
	for ttl, want := range map[time.Duration]int64{42 * time.Second: 1, 38 * time.Second: 0} {
		cfg := DefaultConfig()
		cfg.TTL = ttl
		if got := Simulate(tm, cfg, replayAll([]logfmt.Record{a})).PrefetchesIssued; got != want {
			t.Errorf("TTL %v: prefetches = %d, want %d", ttl, got, want)
		}
	}
}

func TestTimedUnknownGapStillPrefetched(t *testing.T) {
	// A prediction with no gap estimate must not be skipped: absence of
	// evidence is not a long gap.
	tm := ngram.NewTimedModel(1)
	tm.Train([]string{"https://x.com/a", "https://x.com/b"}) // untimed training: no gaps
	r := logfmt.Record{
		Time: t0, ClientID: 1, Method: "GET", URL: "https://x.com/a",
		UserAgent: "App/1.0", MIMEType: "application/json",
		Status: 200, Bytes: 100, Cache: logfmt.CacheMiss,
	}
	if got := Simulate(tm, DefaultConfig(), replayAll([]logfmt.Record{r})).PrefetchesIssued; got != 1 {
		t.Errorf("prefetches = %d, want 1", got)
	}
}
