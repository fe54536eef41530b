package edge_test

import (
	"testing"
	"time"

	"repro/internal/edge"
	"repro/internal/logfmt"
	"repro/internal/synth"
)

// characterStream is the seeded ~20 k-record stream the characterisation
// tests replay: a scaled-down long-term capture (16 h, 12 domains), so
// entries expire, shards overflow and flows repeat. internal/prefetch
// pins its comparisons over the same configuration.
func characterStream(t *testing.T) []logfmt.Record {
	t.Helper()
	var recs []logfmt.Record
	cfg := synth.LongTermConfig(15, 0.001)
	cfg.Duration = 16 * time.Hour
	if err := synth.Generate(cfg, func(r *logfmt.Record) error {
		recs = append(recs, *r)
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	return recs
}

// TestReplayCharacterisation pins what Pool.Replay computes for one
// seeded stream under second-hit admission: every ReplayResult field and
// every pooled cache counter. The constants were taken before edge.Cache
// entries carried payloads; a change to the cache or the replay that
// moves any of them has changed the numbers the §4/§5.2 exhibits are
// read from.
func TestReplayCharacterisation(t *testing.T) {
	recs := characterStream(t)
	if len(recs) != 20772 {
		t.Fatalf("stream has %d records, want 20772: the generator changed, not the edge", len(recs))
	}
	p := edge.NewPool(4, 2<<20, 5*time.Minute)
	p.Admission = edge.SecondHitFilter()
	var got edge.ReplayResult
	for i := range recs {
		r := recs[i]
		r.URL = logfmt.CanonicalURL(r.URL)
		p.Replay(&r, &got)
	}
	want := edge.ReplayResult{Requests: 20772, Cacheable: 17229, Uncacheable: 3543, Hits: 6759,
		OriginBytes: 1145922349, ServedBytes: 1441829630}
	if got != want {
		t.Errorf("ReplayResult\n got %+v\nwant %+v", got, want)
	}
	cache := edge.CacheMetrics{Hits: 6759, Misses: 10470, Evictions: 884, Expired: 8897}
	if m := p.Metrics(); m != cache {
		t.Errorf("Pool.Metrics\n got %+v\nwant %+v", m, cache)
	}
}
