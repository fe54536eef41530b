package dsp

import (
	"math"
	"sort"
	"testing"
	"testing/quick"

	"repro/internal/stats"
)

// realSignal is a noisy signal with a non-zero mean, so the DC term and
// the mean removal are both exercised.
func realSignal(n int, seed uint64) []float64 {
	r := stats.NewRNG(seed)
	x := make([]float64, n)
	for i := range x {
		x[i] = 3 + r.NormFloat64()
	}
	return x
}

// closeTo reports whether got is within 1e-9 of want, relative to
// want's size once that exceeds 1.
func closeTo(got, want float64) bool {
	return math.Abs(got-want) <= 1e-9*math.Max(1, math.Abs(want))
}

func checkAgainstOracles(t *testing.T, x []float64) {
	t.Helper()
	acf, want := Autocorrelation(x), AutocorrelationDirect(x)
	if len(acf) != len(want) {
		t.Fatalf("n=%d: ACF length %d, want %d", len(x), len(acf), len(want))
	}
	for i := range want {
		if !closeTo(acf[i], want[i]) {
			t.Fatalf("n=%d: ACF lag %d = %v, direct %v", len(x), i, acf[i], want[i])
		}
	}
	pow, wantPow := Periodogram(x), PeriodogramDirect(x)
	if len(pow) != len(wantPow) {
		t.Fatalf("n=%d: periodogram length %d, want %d", len(x), len(pow), len(wantPow))
	}
	for k := range wantPow {
		if !closeTo(pow[k], wantPow[k]) {
			t.Fatalf("n=%d: power[%d] = %v, direct %v", len(x), k, pow[k], wantPow[k])
		}
	}
}

// TestPlannedMatchesOracles crosses the planned transforms with the
// O(n²) oracles at sizes on both sides of every dispatch: one sample,
// powers of two and their neighbours, both parities of stage count, a
// prime, and the typical flow length.
func TestPlannedMatchesOracles(t *testing.T) {
	for _, n := range []int{1, 2, 3, 5, 16, 17, 100, 255, 256, 257, 1000, 3571, 3600, 3601} {
		checkAgainstOracles(t, realSignal(n, uint64(n)))
	}
}

func TestPlannedMatchesOraclesProperty(t *testing.T) {
	f := func(n uint16, seed uint64) bool {
		checkAgainstOracles(t, realSignal(1+int(n)%700, seed))
		return !t.Failed()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

// oneAtATime is the permutation test as §5.1 states it and as this
// package ran it before shuffles were paired: every shuffle gets its own
// autocorrelation and periodogram. It returns the per-shuffle maxima.
func oneAtATime(signal []float64, cfg DetectorConfig, rng *stats.RNG) (acfMaxima, powMaxima []float64) {
	n := len(signal)
	maxLag := int(float64(n) * cfg.MaxLagFrac)
	perm := append([]float64(nil), signal...)
	for i := 0; i < cfg.Permutations; i++ {
		rng.Shuffle(n, func(a, b int) { perm[a], perm[b] = perm[b], perm[a] })
		maxACF, maxPow := 0.0, 0.0
		for lag, v := range Autocorrelation(perm) {
			if lag >= cfg.MinLag && lag <= maxLag && v > maxACF {
				maxACF = v
			}
		}
		for k, v := range Periodogram(perm) {
			if k >= 2 && v > maxPow {
				maxPow = v
			}
		}
		acfMaxima = append(acfMaxima, maxACF)
		powMaxima = append(powMaxima, maxPow)
	}
	return acfMaxima, powMaxima
}

// kthLargestOf returns the k-th largest element, the smallest when
// there are fewer than k.
func kthLargestOf(xs []float64, k int) float64 {
	s := append([]float64(nil), xs...)
	sort.Sort(sort.Reverse(sort.Float64Slice(s)))
	return s[min(k, len(s))-1]
}

// TestPairedShufflesMatchOneAtATime: riding two shuffles on one
// transform changes neither which permutations are drawn nor what is
// measured on them. Covers an odd count (the last shuffle rides alone),
// counts too small for a second-largest, and a zero-energy signal.
func TestPairedShufflesMatchOneAtATime(t *testing.T) {
	constant := make([]float64, 240)
	for i := range constant {
		constant[i] = 2
	}
	signals := map[string][]float64{
		"noise":    realSignal(3600, 1),
		"periodic": periodicSignal(901, 30, true, stats.NewRNG(2)),
		"pow2":     realSignal(512, 3),
		"constant": constant,
	}
	for name, x := range signals {
		for _, perms := range []int{1, 2, 7, 100} {
			cfg := DefaultDetectorConfig()
			cfg.Permutations = perms
			refRNG, rng := stats.NewRNG(77), stats.NewRNG(77)
			wantACF, wantPow := oneAtATime(x, cfg, refRNG)

			var d Detector
			lags := int(float64(len(x)) * cfg.MaxLagFrac)
			energy := d.center(x)
			var gotACF, gotPow []float64
			for i := 0; i < perms; i += 2 {
				single := i+1 == perms
				acfA, powA, acfB, powB := d.shufflePair(rng, cfg.MinLag, lags, energy, single)
				gotACF, gotPow = append(gotACF, acfA), append(gotPow, powA)
				if !single {
					gotACF, gotPow = append(gotACF, acfB), append(gotPow, powB)
				}
			}
			for i := range wantACF {
				if !closeTo(gotACF[i], wantACF[i]) || !closeTo(gotPow[i], wantPow[i]) {
					t.Fatalf("%s x=%d shuffle %d: paired (%v, %v), one at a time (%v, %v)",
						name, perms, i, gotACF[i], gotPow[i], wantACF[i], wantPow[i])
				}
			}
			if a, b := rng.Uint64(), refRNG.Uint64(); a != b {
				t.Fatalf("%s x=%d: RNG streams diverged after the shuffles", name, perms)
			}

			// The thresholds are the same order statistics of those maxima.
			d.center(x)
			acfT, powT := d.permutationThresholds(cfg, lags, energy, stats.NewRNG(77))
			wantACFT := kthLargestOf(wantACF, 2)
			wantPowT := kthLargestOf(wantPow, max(perms-1, 1))
			if !closeTo(acfT, wantACFT) || !closeTo(powT, wantPowT) {
				t.Fatalf("%s x=%d: thresholds (%v, %v), want (%v, %v)", name, perms, acfT, powT, wantACFT, wantPowT)
			}
		}
	}
}

// TestShufflePairAllocatesNothing: once the tables and scratch for a
// signal length exist, a pair of permutations costs no allocation.
func TestShufflePairAllocatesNothing(t *testing.T) {
	for _, n := range []int{3600, 4096} { // Bluestein and direct power-of-two spectra
		x := realSignal(n, 5)
		var d Detector
		energy := d.center(x)
		rng := stats.NewRNG(6)
		step := func() { d.shufflePair(rng, 2, n/2, energy, false) }
		step() // builds the tables
		if allocs := testing.AllocsPerRun(10, step); allocs != 0 {
			t.Errorf("n=%d: %v allocations per pair, want 0", n, allocs)
		}
	}
}

// TestDetectorReuseLeavesNoTrace: a Detector that has analysed longer,
// shorter and differently sized signals answers exactly as a fresh one.
func TestDetectorReuseLeavesNoTrace(t *testing.T) {
	signals := [][]float64{
		periodicSignal(3600, 60, true, stats.NewRNG(1)),
		periodicSignal(300, 15, false, nil),
		realSignal(1024, 2),
		periodicSignal(1801, 45, true, stats.NewRNG(3)),
		periodicSignal(300, 20, false, nil),
	}
	var warm Detector
	for i, x := range signals {
		var fresh Detector
		got, gotOK, err := warm.Detect(x, DefaultDetectorConfig(), stats.NewRNG(9))
		if err != nil {
			t.Fatal(err)
		}
		want, wantOK, _ := fresh.Detect(x, DefaultDetectorConfig(), stats.NewRNG(9))
		if got != want || gotOK != wantOK {
			t.Errorf("signal %d: warmed detector %+v/%v, fresh %+v/%v", i, got, gotOK, want, wantOK)
		}
		gotAll, _ := warm.DetectAll(x, DefaultDetectorConfig(), stats.NewRNG(9), 0)
		wantAll, _ := fresh.DetectAll(x, DefaultDetectorConfig(), stats.NewRNG(9), 0)
		if len(gotAll) != len(wantAll) {
			t.Fatalf("signal %d: DetectAll %d periods, fresh %d", i, len(gotAll), len(wantAll))
		}
		for j := range wantAll {
			if gotAll[j] != wantAll[j] {
				t.Errorf("signal %d period %d: %+v, fresh %+v", i, j, gotAll[j], wantAll[j])
			}
		}
	}
}

// FuzzDetect derives a signal of arbitrary length and content from the
// fuzz input. Detect must not panic, must reject any non-finite sample,
// and must give the same answer for the same seed whether it runs on a
// fresh Detector or through the package-level entry point.
func FuzzDetect(f *testing.F) {
	f.Add([]byte{0, 0, 1, 0, 0, 1, 0, 0, 1, 0, 0, 1, 0, 0, 1, 0, 0, 1}, uint64(1))
	f.Add([]byte{7}, uint64(2))
	f.Add([]byte{254, 3, 3, 3, 3, 3, 3, 3}, uint64(3))
	f.Add([]byte{1, 2, 3, 255, 5, 6, 7, 8, 9, 10, 11, 12}, uint64(4))
	f.Fuzz(func(t *testing.T, data []byte, seed uint64) {
		if len(data) > 1<<12 {
			data = data[:1<<12]
		}
		signal := make([]float64, len(data))
		finite := true
		for i, b := range data {
			switch b {
			case 255:
				signal[i], finite = math.NaN(), false
			case 254:
				signal[i], finite = math.Inf(1-2*(i&1)), false
			case 253:
				signal[i] = 1e100 // large, but its power spectrum stays finite
			default:
				signal[i] = float64(b)
			}
		}
		cfg := DetectorConfig{Permutations: 5, MinLag: int(seed % 7), MaxLagFrac: float64(seed%11) / 8}
		var d Detector
		got, ok, err := d.Detect(signal, cfg, stats.NewRNG(seed))
		if len(signal) == 0 || !finite {
			if err == nil {
				t.Fatalf("Detect accepted an empty or non-finite signal")
			}
			return
		}
		if err != nil {
			t.Fatalf("Detect rejected a finite signal: %v", err)
		}
		if ok && (got.Period < 2 || got.Period >= len(signal)) {
			t.Fatalf("period %d outside [2, %d)", got.Period, len(signal))
		}
		again, okAgain, _ := Detect(signal, cfg, stats.NewRNG(seed))
		if ok != okAgain || (ok && got != again) {
			t.Fatalf("same seed diverged: %+v/%v vs %+v/%v", got, ok, again, okAgain)
		}
	})
}
