package prefetch

import (
	"testing"
	"time"

	"repro/internal/edge"
	"repro/internal/logfmt"
	"repro/internal/ngram"
	"repro/internal/synth"
)

// TestCompareCharacterisation pins Compare, and Simulate over the timed
// model, over the seeded stream internal/edge's TestReplayCharacterisation
// replays (its JSON records, as the prefetch exhibit filters them), on
// caches small enough to evict. The constants were taken while Simulator
// kept its own copy of Pool.Replay and diffed Cache.Metrics() per record
// (PrefetchedHits was then a field of Result, not of the embedded
// ReplayResult), and the timed ones while a separate timed simulator
// wrapped it; they are what "same numbers" means for any later change to
// either package. The push accounting on the same replay must match the
// standalone push oracle.
func TestCompareCharacterisation(t *testing.T) {
	cfg := synth.LongTermConfig(15, 0.001)
	cfg.Duration = 16 * time.Hour
	var recs []logfmt.Record
	if err := synth.Generate(cfg, func(r *logfmt.Record) error {
		if r.IsJSON() {
			recs = append(recs, *r)
		}
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	replay := func(fn func(*logfmt.Record)) {
		for i := range recs {
			fn(&recs[i])
		}
	}
	seq := ngram.NewSequencer()
	for i := range recs {
		seq.Observe(&recs[i])
	}
	train, _ := seq.SplitFlows()
	tm := ngram.NewTimedModel(1)
	for _, flow := range train {
		tm.TrainTimed(flow)
	}

	if len(recs) != 13218 {
		t.Fatalf("stream has %d JSON records, want 13218: the generator changed, not the simulation", len(recs))
	}

	pc := Config{K: 2, Servers: 4, CacheBytes: 512 << 10, TTL: 5 * time.Minute}
	baseline := edge.ReplayResult{Requests: 13218, Cacheable: 9675, Uncacheable: 3543, Hits: 3183,
		OriginBytes: 42005825, ServedBytes: 55877290}
	untimed := Result{
		ReplayResult: edge.ReplayResult{Requests: 13218, Cacheable: 9675, Uncacheable: 3543, Hits: 7802,
			OriginBytes: 18885670, ServedBytes: 55877290, PrefetchedHits: 6832},
		PrefetchesIssued: 6887, PrefetchedBytes: 30325917,
	}
	got := Compare(tm.Model, pc, replay)
	oracle := newPushOracle(tm.Model, pc.K)
	replay(oracle.Observe)
	if got.Prefetch.Push != oracle.res {
		t.Errorf("Compare push\n got %+v\nwant %+v", got.Prefetch.Push, oracle.res)
	}
	got.Prefetch.Push = PushResult{}
	if want := (Comparison{Baseline: baseline, Prefetch: untimed}); got != want {
		t.Errorf("Compare\n got %+v\nwant %+v", got, want)
	}
	wantTimed := Result{
		ReplayResult: edge.ReplayResult{Requests: 13218, Cacheable: 9675, Uncacheable: 3543, Hits: 7779,
			OriginBytes: 18968574, ServedBytes: 55877290, PrefetchedHits: 6802},
		PrefetchesIssued: 6806, PrefetchedBytes: 29917875,
	}
	timed := Simulate(tm, pc, replay)
	timed.Push = PushResult{}
	if timed != wantTimed {
		t.Errorf("Simulate(timed)\n got %+v\nwant %+v", timed, wantTimed)
	}
	// The simulator's own pool: an error-free stream, so these are also the
	// cache counters a payload-carrying cache must reproduce.
	sim := NewSimulator(tm.Model, pc)
	replay(sim.Observe)
	wantCache := edge.CacheMetrics{Hits: 7802, Misses: 1873, Evictions: 125, Expired: 1768, PrefetchedHits: 6832}
	if got := sim.Pool().Metrics(); got != wantCache {
		t.Errorf("simulator pool metrics\n got %+v\nwant %+v", got, wantCache)
	}
}
