package prefetch

import (
	"fmt"
	"testing"
	"time"

	"repro/internal/logfmt"
	"repro/internal/ngram"
)

var t0 = time.Date(2019, 5, 1, 0, 0, 0, 0, time.UTC)

// chainRecords builds per-client walks over a deterministic URL chain
// a->b->c->..., each client visiting each URL once per round. Gaps are
// large enough that a 60 s TTL cache gets no temporal-locality hits
// across rounds, isolating the prefetching benefit.
func chainRecords(clients, rounds int, gap time.Duration) []logfmt.Record {
	urls := []string{
		"https://x.com/a", "https://x.com/b", "https://x.com/c",
		"https://x.com/d", "https://x.com/e",
	}
	var recs []logfmt.Record
	at := t0
	for round := 0; round < rounds; round++ {
		for c := 0; c < clients; c++ {
			for _, u := range urls {
				recs = append(recs, logfmt.Record{
					Time: at, ClientID: uint64(c), Method: "GET", URL: u,
					UserAgent: "App/1.0 (iPhone)", MIMEType: "application/json",
					Status: 200, Bytes: 500, Cache: logfmt.CacheMiss,
				})
				at = at.Add(gap)
			}
		}
	}
	return recs
}

func trainModel(recs []logfmt.Record) *ngram.Model {
	s := ngram.NewSequencer()
	s.TestFraction = 0.01
	for i := range recs {
		s.Observe(&recs[i])
	}
	m, _ := s.TrainAndEvaluate(1, nil)
	return m
}

func TestPrefetchImprovesHitRatio(t *testing.T) {
	recs := chainRecords(5, 4, 30*time.Second)
	model := trainModel(recs)
	cfg := DefaultConfig()
	cmp := Compare(model, cfg, func(fn func(*logfmt.Record)) {
		for i := range recs {
			fn(&recs[i])
		}
	})
	if cmp.Prefetch.HitRatio() <= cmp.Baseline.HitRatio() {
		t.Errorf("prefetch %.3f not above baseline %.3f",
			cmp.Prefetch.HitRatio(), cmp.Baseline.HitRatio())
	}
	if cmp.HitRatioDelta() < 0.2 {
		t.Errorf("delta = %.3f, want substantial on a deterministic chain", cmp.HitRatioDelta())
	}
	if cmp.Prefetch.PrefetchesIssued == 0 || cmp.Prefetch.PrefetchedHits == 0 {
		t.Errorf("prefetch accounting: %+v", cmp.Prefetch)
	}
}

func TestPrefetchWasteOnRandomTraffic(t *testing.T) {
	// A model trained on one chain prefetching over unrelated URLs
	// wastes most prefetches.
	recs := chainRecords(3, 2, 30*time.Second)
	model := trainModel(recs)
	sim := NewSimulator(model, DefaultConfig())
	at := t0
	for i := 0; i < 200; i++ {
		r := logfmt.Record{
			Time: at, ClientID: 999, Method: "GET",
			URL:       fmt.Sprintf("https://other.com/o%d", i),
			UserAgent: "App/1.0 (iPhone)", MIMEType: "application/json",
			Status: 200, Bytes: 300, Cache: logfmt.CacheMiss,
		}
		sim.Observe(&r)
		at = at.Add(2 * time.Second)
	}
	res := sim.Result()
	if res.PrefetchesIssued == 0 {
		t.Skip("model issued no prefetches for unknown URLs")
	}
	if res.WasteRatio() < 0.9 {
		t.Errorf("waste = %.2f, want ~1 on unrelated traffic", res.WasteRatio())
	}
}

func TestSimulatorUncacheableTunnels(t *testing.T) {
	model := ngram.NewModel(1)
	sim := NewSimulator(model, DefaultConfig())
	r := logfmt.Record{
		Time: t0, ClientID: 1, Method: "GET", URL: "https://x.com/p",
		MIMEType: "application/json", Status: 200, Bytes: 100,
		Cache: logfmt.CacheUncacheable,
	}
	sim.Observe(&r)
	sim.Observe(&r)
	res := sim.Result()
	if res.Uncacheable != 2 || res.Hits != 0 {
		t.Errorf("result = %+v", res)
	}
}

func TestSimulatorPostTunnels(t *testing.T) {
	model := ngram.NewModel(1)
	sim := NewSimulator(model, DefaultConfig())
	r := logfmt.Record{
		Time: t0, ClientID: 1, Method: "POST", URL: "https://x.com/w",
		MIMEType: "application/json", Status: 200, Bytes: 100,
		Cache: logfmt.CacheMiss,
	}
	sim.Observe(&r)
	if got := sim.Result(); got.Uncacheable != 1 || got.Cacheable != 0 {
		t.Errorf("result = %+v", got)
	}
}

func TestPrefetchDedupe(t *testing.T) {
	// Model that always predicts "b" after "a"; observing "a" twice in
	// one TTL window must prefetch "b" once.
	m := ngram.NewModel(1)
	m.Train([]string{"https://x.com/a", "https://x.com/b"})
	sim := NewSimulator(m, DefaultConfig())
	r := logfmt.Record{
		Time: t0, ClientID: 1, Method: "GET", URL: "https://x.com/a",
		MIMEType: "application/json", Status: 200, Bytes: 100, Cache: logfmt.CacheMiss,
	}
	sim.Observe(&r)
	r2 := r
	r2.Time = t0.Add(5 * time.Second)
	sim.Observe(&r2)
	if got := sim.Result().PrefetchesIssued; got != 1 {
		t.Errorf("prefetches = %d, want 1 (deduped)", got)
	}
}

func TestWasteRatioBounds(t *testing.T) {
	r := Result{}
	if r.WasteRatio() != 0 {
		t.Error("empty waste should be 0")
	}
	r.PrefetchesIssued = 2
	r.PrefetchedHits = 5 // multiple hits per entry
	if r.WasteRatio() != 0 {
		t.Error("waste should clamp at 0")
	}
	r.PrefetchedHits = 1
	if r.WasteRatio() != 0.5 {
		t.Errorf("waste = %v", r.WasteRatio())
	}
}

func TestConfigSanitize(t *testing.T) {
	c := Config{}
	c.sanitize()
	if c.K != 1 || c.Servers != 1 || c.TTL <= 0 || c.CacheBytes <= 0 {
		t.Errorf("sanitized = %+v", c)
	}
}

func TestPrefetchKSweepMonotoneIssuance(t *testing.T) {
	recs := chainRecords(5, 3, 20*time.Second)
	model := trainModel(recs)
	prev := int64(-1)
	for _, k := range []int{1, 3, 5} {
		cfg := DefaultConfig()
		cfg.K = k
		sim := NewSimulator(model, cfg)
		for i := range recs {
			sim.Observe(&recs[i])
		}
		issued := sim.Result().PrefetchesIssued
		if issued < prev {
			t.Errorf("K=%d issued %d, below smaller K's %d", k, issued, prev)
		}
		prev = issued
	}
}
