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
// seeded stream under second-hit admission, once with a two-hour origin
// outage and once error-free: every ReplayResult field and every pooled
// cache counter. The constants were taken before edge.Cache entries
// carried payloads; a change to the cache or the replay that moves any of
// them has changed the numbers the §4/§5.2 exhibits are read from.
func TestReplayCharacterisation(t *testing.T) {
	recs := characterStream(t)
	if len(recs) != 20772 {
		t.Fatalf("stream has %d records, want 20772: the generator changed, not the edge", len(recs))
	}
	start := recs[0].Time.Truncate(time.Hour)
	downFrom, downTo := start.Add(8*time.Hour), start.Add(10*time.Hour)

	for _, c := range []struct {
		name     string
		originUp func(time.Time) bool
		want     edge.ReplayResult
		cache    edge.CacheMetrics
	}{
		{
			name:     "brownout",
			originUp: func(at time.Time) bool { return at.Before(downFrom) || !at.Before(downTo) },
			want: edge.ReplayResult{Requests: 20772, Cacheable: 17229, Uncacheable: 3300, Hits: 6261,
				OriginBytes: 1120974988, ServedBytes: 1439287387, StaleServes: 1389, Shed: 243, Failed: 172},
			cache: edge.CacheMetrics{Hits: 6261, Misses: 9579, Evictions: 785, Expired: 7939, StaleServes: 1389},
		},
		{
			name: "error-free",
			want: edge.ReplayResult{Requests: 20772, Cacheable: 17229, Uncacheable: 3543, Hits: 6759,
				OriginBytes: 1145922349, ServedBytes: 1441829630},
			cache: edge.CacheMetrics{Hits: 6759, Misses: 10470, Evictions: 884, Expired: 8897},
		},
	} {
		p := edge.NewPool(4, 2<<20, 5*time.Minute)
		p.Admission = edge.ConcurrentSecondHitFilter()
		p.OriginUp = c.originUp
		var got edge.ReplayResult
		for i := range recs {
			r := recs[i]
			r.URL = logfmt.CanonicalURL(r.URL)
			p.Replay(&r, &got)
		}
		if got != c.want {
			t.Errorf("%s: ReplayResult\n got %+v\nwant %+v", c.name, got, c.want)
		}
		if m := p.Metrics(); m != c.cache {
			t.Errorf("%s: Pool.Metrics\n got %+v\nwant %+v", c.name, m, c.cache)
		}
	}
}
