package dsp

import (
	"testing"

	"repro/internal/stats"
)

func benchSignal(n int) []float64 {
	rng := stats.NewRNG(1)
	x := make([]float64, n)
	for i := range x {
		x[i] = rng.NormFloat64()
	}
	return x
}

func BenchmarkFFTPow2(b *testing.B) {
	x := benchSignal(4096)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		FFTReal(x)
	}
}

func BenchmarkFFTBluestein(b *testing.B) {
	x := benchSignal(4095) // forces the chirp-z path
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		FFTReal(x)
	}
}

func BenchmarkPeriodogram(b *testing.B) {
	x := benchSignal(7200) // 2 h at 1 s
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		Periodogram(x)
	}
}

func BenchmarkAutocorrelationSizes(b *testing.B) {
	for _, n := range []int{1800, 7200, 86400} {
		x := benchSignal(n)
		b.Run(itoa(n), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				Autocorrelation(x)
			}
		})
	}
}

func BenchmarkDetectTypicalFlow(b *testing.B) {
	// A 2 h client-object flow at 2 s bins with a 60 s period — the
	// workhorse case of the §5.1 analysis.
	x := make([]float64, 3600)
	for i := 0; i < len(x); i += 30 {
		x[i] = 1
	}
	cfg := DefaultDetectorConfig()
	rng := stats.NewRNG(2)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, ok, err := Detect(x, cfg, rng); err != nil || !ok {
			b.Fatalf("detect: %v %v", ok, err)
		}
	}
}

// BenchmarkPermutationPair is the kernel of the permutation test: two
// shuffles of a typical flow, their autocorrelation maxima and their
// spectral maxima, on warmed tables.
func BenchmarkPermutationPair(b *testing.B) {
	x := benchSignal(3600)
	var d Detector
	energy := d.center(x)
	rng := stats.NewRNG(3)
	d.shufflePair(rng, 2, len(x)/2, energy, false)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		d.shufflePair(rng, 2, len(x)/2, energy, false)
	}
}

func itoa(n int) string {
	var buf [20]byte
	i := len(buf)
	for n > 0 {
		i--
		buf[i] = byte('0' + n%10)
		n /= 10
	}
	return string(buf[i:])
}
