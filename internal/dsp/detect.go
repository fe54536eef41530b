package dsp

import (
	"math"
	"sort"
	"sync"

	"repro/internal/stats"
)

// DetectorConfig parameterizes period detection, mirroring §5.1.
type DetectorConfig struct {
	// Permutations is x in the paper's algorithm: how many random
	// shuffles of the signal establish the noise thresholds. The paper
	// empirically finds values above 100 do not change results and uses
	// x = 100.
	Permutations int
	// MinLag is the smallest candidate period in samples. Periods below
	// the sampling rate are unreliable due to network jitter; with the
	// paper's 1 s sampling this is 2 samples.
	MinLag int
	// MaxLagFrac bounds the largest candidate period as a fraction of
	// the signal length; at least two full cycles must be observed, so
	// the default is 0.5.
	MaxLagFrac float64
}

// DefaultDetectorConfig returns the paper's parameters (x=100, 1 s
// sampling, periods up to half the observation window).
func DefaultDetectorConfig() DetectorConfig {
	return DetectorConfig{Permutations: 100, MinLag: 2, MaxLagFrac: 0.5}
}

func (c *DetectorConfig) sanitize() {
	if c.Permutations <= 0 {
		c.Permutations = 100
	}
	if c.MinLag < 2 {
		c.MinLag = 2
	}
	if c.MaxLagFrac <= 0 || c.MaxLagFrac > 1 {
		c.MaxLagFrac = 0.5
	}
}

// Detection is a significant period found in a signal.
type Detection struct {
	// Period is the detected period in samples.
	Period int
	// ACFValue is the autocorrelation at the detected lag.
	ACFValue float64
	// Power is the periodogram power of the supporting frequency.
	Power float64
}

// Detector runs Detect and DetectAll on FFT tables and scratch buffers
// it keeps from one call to the next, so analysing many signals builds
// each table once and, past the largest signal seen, allocates nothing
// per permutation. The zero value is ready to use. A Detector is not
// safe for concurrent use: give each goroutine its own.
type Detector struct {
	plan fftPlan
	// perm is the mean-removed signal; the permutation test shuffles it
	// in place, each shuffle on top of the last.
	perm []float64
	// pair carries two real signals as its real and imaginary parts, so
	// one complex transform serves both; spec is its length-n DFT.
	pair, spec []complex128
	// acf and power are the unshuffled signal's autocorrelation (lags up
	// to the lag bound) and periodogram.
	acf, power []float64
}

// detectors backs the package-level entry points, which have no
// Detector of their own to reuse.
var detectors = sync.Pool{New: func() any { return new(Detector) }}

// Detect runs the paper's four-step periodicity algorithm on a uniformly
// sampled signal (e.g. request counts in 1 s bins):
//
//  1. Compute the signal's autocorrelation and periodogram.
//  2. Randomly permute the signal x times; record each permutation's
//     maximum ACF value and maximum spectral power.
//  3. Take the (x-1)-th largest recorded maxima (the second largest, a
//     ~99% confidence bound for x=100) as the ACF and power thresholds.
//  4. Keep periodogram frequencies above the power threshold as
//     candidate periods; validate each on the ACF by hill-climbing to
//     the nearest local maximum and requiring it to clear the ACF
//     threshold. The candidate with the highest validated ACF peak is
//     the signal's period.
//
// It returns ok=false when no period is significant, which is the common
// case for human-triggered traffic. rng drives the permutations; pass a
// seeded RNG for reproducible analyses.
func Detect(signal []float64, cfg DetectorConfig, rng *stats.RNG) (Detection, bool, error) {
	d := detectors.Get().(*Detector)
	defer detectors.Put(d)
	return d.Detect(signal, cfg, rng)
}

// Detect is the package-level Detect on d's tables and scratch.
func (d *Detector) Detect(signal []float64, cfg DetectorConfig, rng *stats.RNG) (Detection, bool, error) {
	acf, acfThresh, peaks, maxLag, err := d.validatedPeaks(signal, &cfg, rng)
	if err != nil || len(peaks) == 0 {
		return Detection{}, false, err
	}
	best := peaks[0]
	// Prefer the fundamental: a p-periodic signal validates at 2p, 3p,
	// ... with nearly the same ACF, and sampling noise on short signals
	// can favor a multiple. Walk the sub-multiples of the winning lag
	// and take the smallest one whose ACF peak is comparable (>= 70% of
	// the winner; a multiple-only period would show a near-zero sub-lag
	// ACF) and still significant.
	for m := best.Period / cfg.MinLag; m >= 2; m-- {
		sub := (best.Period + m/2) / m // rounded, since peaks drift under jitter
		if sub < cfg.MinLag {
			continue
		}
		lag, ok := hillClimb(acf, sub, maxLag)
		if !ok || lag >= best.Period || acf[lag] <= acfThresh || acf[lag] < 0.7*best.ACFValue {
			continue
		}
		best = Detection{Period: lag, ACFValue: acf[lag], Power: best.Power}
		break
	}
	return best, true, nil
}

// DetectAll returns every significant distinct period of the signal in
// descending ACF order, the multi-period analysis the paper leaves as
// future work. Harmonically related peaks are grouped: a lag within 10%
// of an integer multiple of an already-accepted (stronger or equal)
// period is considered the same process and dropped. At most maxPeriods
// are returned (<= 0 means no limit).
func DetectAll(signal []float64, cfg DetectorConfig, rng *stats.RNG, maxPeriods int) ([]Detection, error) {
	d := detectors.Get().(*Detector)
	defer detectors.Put(d)
	return d.DetectAll(signal, cfg, rng, maxPeriods)
}

// DetectAll is the package-level DetectAll on d's tables and scratch.
func (d *Detector) DetectAll(signal []float64, cfg DetectorConfig, rng *stats.RNG, maxPeriods int) ([]Detection, error) {
	_, _, peaks, _, err := d.validatedPeaks(signal, &cfg, rng)
	if err != nil || len(peaks) == 0 {
		return nil, err
	}
	var kept []Detection
	for _, p := range peaks {
		if isHarmonicOfAny(p.Period, kept) {
			continue
		}
		kept = append(kept, p)
		if maxPeriods > 0 && len(kept) >= maxPeriods {
			break
		}
	}
	return kept, nil
}

// isHarmonicOfAny reports whether lag is within 10% of an integer
// multiple (or sub-multiple) of any kept period.
func isHarmonicOfAny(lag int, kept []Detection) bool {
	for _, k := range kept {
		lo, hi := lag, k.Period
		if lo > hi {
			lo, hi = hi, lo
		}
		ratio := float64(hi) / float64(lo)
		nearest := math.Round(ratio)
		if nearest >= 1 && math.Abs(ratio-nearest) <= 0.1+1e-9 {
			return true
		}
	}
	return false
}

// center loads x with its mean removed into perm and, as the real parts
// with zero imaginary parts, into pair, and returns the centered signal's
// energy Σ(x-mean)², the lag-0 autocovariance.
func (d *Detector) center(x []float64) (energy float64) {
	d.perm = grow(d.perm, len(x))
	d.pair = grow(d.pair, len(x))
	mean := 0.0
	for _, v := range x {
		mean += v
	}
	mean /= float64(len(x))
	for i, v := range x {
		c := v - mean
		d.perm[i] = c
		d.pair[i] = complex(c, 0)
		energy += c * c
	}
	return energy
}

// validatedPeaks runs steps 1-4 of the detection algorithm and returns
// the ACF (lags 0..maxLag, in d's scratch), its significance threshold,
// the distinct validated ACF peaks sorted by descending ACF value, and
// the lag bound.
func (d *Detector) validatedPeaks(signal []float64, cfg *DetectorConfig, rng *stats.RNG) (acf []float64, acfThresh float64, peaks []Detection, maxLag int, err error) {
	if err = validateSignal(signal); err != nil {
		return nil, 0, nil, 0, err
	}
	n := len(signal)
	cfg.sanitize()
	maxLag = int(float64(n) * cfg.MaxLagFrac)
	if maxLag <= cfg.MinLag {
		return nil, 0, nil, maxLag, nil // too short to contain two cycles
	}
	lags := min(maxLag, n-1)

	// The mean and the energy do not change under permutation: take them
	// once, here, for the signal and all its shuffles. Removing the mean
	// only changes the periodogram at k=0, which is never a candidate.
	energy := d.center(signal)
	d.acf = grow(d.acf, lags+1)
	acf = d.acf
	clear(acf) // a constant signal has zero autocorrelation by convention
	if energy > 0 {
		cov := d.plan.autocovPair(d.pair, lags)
		for lag := range acf {
			acf[lag] = real(cov[lag]) / energy
		}
	}
	d.spec = grow(d.spec, n)
	d.plan.dft(d.spec, d.pair)
	d.power = grow(d.power, n/2+1)
	power := d.power
	for k := range power {
		power[k] = sqAbs(d.spec[k]) / float64(n)
	}

	var powThresh float64
	acfThresh, powThresh = d.permutationThresholds(*cfg, lags, energy, rng)

	// Candidate periods from spectral peaks above threshold. k=0 is DC;
	// k=1 is the full window; start at k=2.
	type candidate struct {
		period int
		power  float64
	}
	var cands []candidate
	for k := 2; k < len(power); k++ {
		if power[k] <= powThresh {
			continue
		}
		p := int(float64(n)/float64(k) + 0.5)
		if p < cfg.MinLag || p > maxLag {
			continue
		}
		cands = append(cands, candidate{period: p, power: power[k]})
	}
	if len(cands) == 0 {
		return acf, acfThresh, nil, maxLag, nil
	}

	// A significant spectral component at period p is consistent with a
	// true period at any integer multiple of p: multi-client aggregates
	// concentrate power in harmonics of the polling interval (random
	// client phases can cancel the fundamental). Validate every multiple
	// on the ACF; deduplicate by final lag, keeping the highest
	// supporting power.
	byLag := make(map[int]Detection)
	for _, c := range cands {
		for mult := 1; c.period*mult <= maxLag; mult++ {
			lag, ok := hillClimb(acf, c.period*mult, maxLag)
			if !ok || acf[lag] <= acfThresh {
				continue
			}
			if prev, seen := byLag[lag]; !seen || c.power > prev.Power {
				byLag[lag] = Detection{Period: lag, ACFValue: acf[lag], Power: c.power}
			}
		}
	}
	for _, d := range byLag {
		peaks = append(peaks, d)
	}
	sort.Slice(peaks, func(i, j int) bool {
		if peaks[i].ACFValue != peaks[j].ACFValue {
			return peaks[i].ACFValue > peaks[j].ACFValue
		}
		return peaks[i].Period < peaks[j].Period
	})
	return acf, acfThresh, peaks, maxLag, nil
}

// permutationThresholds shuffles the centered signal cfg.Permutations
// times and returns the (x-1)-th largest maximum ACF value and spectral
// power observed across permutations. Shuffles are drawn exactly as if
// each were analysed alone — one rng.Shuffle per permutation, each on top
// of the last — but analysed two at a time.
func (d *Detector) permutationThresholds(cfg DetectorConfig, lags int, energy float64, rng *stats.RNG) (acfThresh, powThresh float64) {
	// The paper takes the "(x-1)th largest" of the recorded maxima as
	// the threshold — a lenient bound (just above the smallest
	// permutation maximum) that admits candidate frequencies whose peak
	// power is diluted by spectral leakage. We apply that reading to the
	// power threshold, which only nominates candidates, and keep the
	// strict bound (second largest, a ~99% confidence level for x=100)
	// on the ACF threshold, which is the decisive validation: a real
	// period must beat essentially every shuffled signal's best
	// autocorrelation. So only the two largest ACF maxima and the two
	// smallest power maxima need keeping.
	acf1, acf2 := math.Inf(-1), math.Inf(-1)
	pow1, pow2 := math.Inf(1), math.Inf(1)
	record := func(acfMax, powMax float64) {
		if acfMax > acf1 {
			acf1, acf2 = acfMax, acf1
		} else if acfMax > acf2 {
			acf2 = acfMax
		}
		if powMax < pow1 {
			pow1, pow2 = powMax, pow1
		} else if powMax < pow2 {
			pow2 = powMax
		}
	}
	for i := 0; i < cfg.Permutations; i += 2 {
		single := i+1 == cfg.Permutations
		acfA, powA, acfB, powB := d.shufflePair(rng, cfg.MinLag, lags, energy, single)
		record(acfA, powA)
		if !single {
			record(acfB, powB)
		}
	}
	if cfg.Permutations == 1 {
		return acf1, pow1
	}
	return acf2, pow2
}

// shufflePair draws the next two permutations of d.perm (one when
// single) and returns, for each, the maximum autocorrelation over lags
// minLag..lags and the maximum periodogram power over k >= 2. The two
// shuffles ride one complex signal a+ib through every transform: both
// autocovariances come back as the real and imaginary parts of one
// result, and both spectra separate from one DFT by conjugate symmetry.
// When single, b is zero and the B results mean nothing.
func (d *Detector) shufflePair(rng *stats.RNG, minLag, lags int, energy float64, single bool) (acfA, powA, acfB, powB float64) {
	perm, pair := d.perm, d.pair
	n := len(perm)
	swap := func(i, j int) { perm[i], perm[j] = perm[j], perm[i] }
	rng.Shuffle(n, swap)
	for i, v := range perm {
		pair[i] = complex(v, 0)
	}
	if !single {
		rng.Shuffle(n, swap)
		for i, v := range perm {
			pair[i] = complex(real(pair[i]), v)
		}
	}

	// A zero-energy signal is all zeros once centered: both maxima stay 0.
	if energy > 0 {
		cov := d.plan.autocovPair(pair, lags)
		for _, c := range cov[minLag : lags+1] {
			if real(c) > acfA {
				acfA = real(c)
			}
			if imag(c) > acfB {
				acfB = imag(c)
			}
		}
		acfA /= energy
		acfB /= energy
	}

	d.spec = grow(d.spec, n)
	spec := d.spec
	d.plan.dft(spec, pair)
	for k := 2; k <= n/2; k++ {
		pa, pb := splitPower(spec[k], spec[n-k])
		if pa > powA {
			powA = pa
		}
		if pb > powB {
			powB = pb
		}
	}
	scale := 0.25 / float64(n)
	return acfA, powA * scale, acfB, powB * scale
}

// hillClimb walks from the candidate lag to the nearest local maximum of
// the ACF, correcting the coarse frequency-domain period estimate with
// the finer time-domain one (the "line up autocorrelation and fourier
// transform" step). It fails if the walk leaves [2, maxLag].
func hillClimb(acf []float64, lag, maxLag int) (int, bool) {
	if lag < 2 || lag > maxLag || lag >= len(acf) {
		return 0, false
	}
	for {
		cur := acf[lag]
		next := lag
		if lag+1 <= maxLag && lag+1 < len(acf) && acf[lag+1] > cur {
			next = lag + 1
		} else if lag-1 >= 2 && acf[lag-1] > cur {
			next = lag - 1
		}
		if next == lag {
			return lag, true
		}
		lag = next
	}
}
