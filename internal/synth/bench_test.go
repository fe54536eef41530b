package synth

import (
	"testing"

	"repro/internal/logfmt"
)

// BenchmarkGenerate runs one full Generate pass per iteration,
// discarding records; allocation counts surface the record-path
// interning work.
func BenchmarkGenerate(b *testing.B) {
	cfg := ShortTermConfig(42, 0.002) // ~50K records
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		n := 0
		if err := Generate(cfg, func(r *logfmt.Record) error {
			n++
			return nil
		}); err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(float64(n), "records/op")
	}
}
