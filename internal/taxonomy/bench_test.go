package taxonomy

import (
	"testing"

	"repro/internal/logfmt"
	"repro/internal/synth"
)

// BenchmarkObserve times the §4 aggregate over a generated short-term
// capture, agents and content types in the generator's mix: the cost the
// bench ledger reports as taxonomy.observe_ns_per_record.
func BenchmarkObserve(b *testing.B) {
	var recs []logfmt.Record
	err := synth.Generate(synth.ShortTermConfig(42, 0.0005), func(r *logfmt.Record) error {
		recs = append(recs, *r)
		return nil
	})
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	c := NewCharacterization()
	for i := 0; i < b.N; i++ {
		if i%len(recs) == 0 {
			c = NewCharacterization() // one aggregate a pass, as the Fig. 3 observer builds it
		}
		c.ObserveAny(&recs[i%len(recs)])
	}
}
