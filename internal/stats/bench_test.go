package stats

import "testing"

func BenchmarkRNGUint64(b *testing.B) {
	r := NewRNG(1)
	for i := 0; i < b.N; i++ {
		r.Uint64()
	}
}

func BenchmarkRNGIntn(b *testing.B) {
	r := NewRNG(1)
	for i := 0; i < b.N; i++ {
		r.Intn(1000)
	}
}

func BenchmarkZipfSample(b *testing.B) {
	z := NewZipf(100000, 1.1)
	r := NewRNG(2)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		z.Sample(r)
	}
}

func BenchmarkLogNormalSample(b *testing.B) {
	ln, _ := LogNormalFromMedianP90(800, 9000)
	r := NewRNG(3)
	for i := 0; i < b.N; i++ {
		ln.Sample(r)
	}
}

func BenchmarkSummaryAdd(b *testing.B) {
	var s Summary
	for i := 0; i < b.N; i++ {
		s.Add(float64(i & 1023))
	}
}

func BenchmarkCounterAdd(b *testing.B) {
	var c Counter
	keys := []string{"mobile", "desktop", "embedded", "unknown"}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c.Add(keys[i&3])
	}
}

func BenchmarkHistogramAdd(b *testing.B) {
	h := NewHistogram([]float64{45, 90, 180, 360, 720, 1800, 3600})
	r := NewRNG(4)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		h.Add(r.Float64() * 3600)
	}
}
