// Package dsp implements the signal-processing primitives behind the
// paper's periodicity detection (§5.1): fast Fourier transforms,
// periodograms, FFT-based autocorrelation, and permutation-based
// significance thresholds, following the AUTOPERIOD approach of
// Vlachos, Yu & Castelli (SDM'05) that the paper extends.
package dsp

import (
	"fmt"
	"math"
)

// FFT returns the discrete Fourier transform of x. The input length may
// be arbitrary: power-of-two lengths use the table-driven radix-2
// transform; other lengths use Bluestein's chirp-z transform. The input
// slice is not modified.
func FFT(x []complex128) []complex128 {
	if len(x) == 0 {
		return nil
	}
	out := make([]complex128, len(x))
	pooledDFT(out, x)
	return out
}

// pooledDFT runs dft on a borrowed Detector's plan.
func pooledDFT(dst, src []complex128) {
	d := detectors.Get().(*Detector)
	d.plan.dft(dst, src)
	detectors.Put(d)
}

// IFFT returns the inverse discrete Fourier transform of x (normalized
// by 1/n).
func IFFT(x []complex128) []complex128 {
	n := len(x)
	if n == 0 {
		return nil
	}
	out := FFT(x)
	// The inverse is the forward transform read backwards.
	for i, j := 1, n-1; i < j; i, j = i+1, j-1 {
		out[i], out[j] = out[j], out[i]
	}
	inv := complex(1/float64(n), 0)
	for i := range out {
		out[i] *= inv
	}
	return out
}

// FFTReal transforms a real-valued signal, returning the full complex
// spectrum.
func FFTReal(x []float64) []complex128 {
	if len(x) == 0 {
		return nil
	}
	out := make([]complex128, len(x))
	for i, v := range x {
		out[i] = complex(v, 0)
	}
	pooledDFT(out, out)
	return out
}

// Periodogram returns the power spectral density estimate of a real
// signal: P[k] = |X[k]|^2 / n for k in [0, n/2]. Index k corresponds to
// frequency k/n cycles per sample.
func Periodogram(x []float64) []float64 {
	n := len(x)
	if n == 0 {
		return nil
	}
	spec := FFTReal(x)
	half := n/2 + 1
	p := make([]float64, half)
	for k := range p {
		p[k] = sqAbs(spec[k]) / float64(n)
	}
	return p
}

// sqAbs returns |z|².
func sqAbs(z complex128) float64 {
	return real(z)*real(z) + imag(z)*imag(z)
}

// PeriodogramDirect computes the same power spectral density as
// Periodogram by evaluating the DFT sums directly in O(n^2); retained
// only to cross-validate the FFT path (see TestPeriodogramMatchesDirect)
// and for the ablation benchmarks. All production callers use
// Periodogram.
func PeriodogramDirect(x []float64) []float64 {
	n := len(x)
	if n == 0 {
		return nil
	}
	half := n/2 + 1
	p := make([]float64, half)
	for k := 0; k < half; k++ {
		var re, im float64
		for t, v := range x {
			ang := -2 * math.Pi * float64(k) * float64(t) / float64(n)
			s, c := math.Sincos(ang)
			re += v * c
			im += v * s
		}
		p[k] = (re*re + im*im) / float64(n)
	}
	return p
}

// Autocorrelation returns the biased sample autocorrelation of x at lags
// 0..len(x)-1, normalized so lag 0 equals 1 (unless x is constant, in
// which case all lags are 0). Computed in O(n log n) via the
// Wiener-Khinchin theorem: the autocovariance is the transform of the
// zero-padded signal's power spectrum.
func Autocorrelation(x []float64) []float64 {
	n := len(x)
	if n == 0 {
		return nil
	}
	out := make([]float64, n)
	d := detectors.Get().(*Detector)
	defer detectors.Put(d)
	d.center(x)
	cov := d.plan.autocovPair(d.pair, n-1)
	c0 := real(cov[0])
	if c0 == 0 {
		return out // constant signal: zero autocorrelation by convention
	}
	for lag := range out {
		out[lag] = real(cov[lag]) / c0
	}
	return out
}

// AutocorrelationDirect computes the same quantity in O(n^2); retained
// for cross-validation and the ablation benchmarks.
func AutocorrelationDirect(x []float64) []float64 {
	n := len(x)
	if n == 0 {
		return nil
	}
	mean := 0.0
	for _, v := range x {
		mean += v
	}
	mean /= float64(n)
	c := make([]float64, n)
	for lag := 0; lag < n; lag++ {
		sum := 0.0
		for i := 0; i+lag < n; i++ {
			sum += (x[i] - mean) * (x[i+lag] - mean)
		}
		c[lag] = sum
	}
	if c[0] == 0 {
		return make([]float64, n)
	}
	c0 := c[0]
	for lag := range c {
		c[lag] /= c0
	}
	return c
}

// validateSignal is shared input checking for the analysis entry points.
func validateSignal(x []float64) error {
	if len(x) == 0 {
		return fmt.Errorf("dsp: empty signal")
	}
	for i, v := range x {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return fmt.Errorf("dsp: signal sample %d is %v", i, v)
		}
	}
	return nil
}
