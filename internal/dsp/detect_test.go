package dsp

import (
	"testing"

	"repro/internal/stats"
)

// periodicSignal builds a request-count signal with an impulse every
// period samples, with optional jitter of +/-1 sample.
func periodicSignal(n, period int, jitter bool, rng *stats.RNG) []float64 {
	x := make([]float64, n)
	for i := 0; i < n; i += period {
		j := i
		if jitter && rng != nil {
			j += rng.Intn(3) - 1
		}
		if j >= 0 && j < n {
			x[j]++
		}
	}
	return x
}

func TestDetectCleanPeriod(t *testing.T) {
	rng := stats.NewRNG(1)
	x := periodicSignal(600, 30, false, nil)
	det, ok, err := Detect(x, DefaultDetectorConfig(), rng)
	if err != nil {
		t.Fatal(err)
	}
	if !ok {
		t.Fatal("clean 30s period not detected")
	}
	if det.Period < 28 || det.Period > 32 {
		t.Errorf("period = %d, want ~30", det.Period)
	}
	if det.ACFValue <= 0 {
		t.Errorf("ACFValue = %v", det.ACFValue)
	}
}

func TestDetectJitteredPeriod(t *testing.T) {
	rng := stats.NewRNG(2)
	x := periodicSignal(900, 60, true, rng)
	det, ok, err := Detect(x, DefaultDetectorConfig(), rng)
	if err != nil {
		t.Fatal(err)
	}
	if !ok {
		t.Fatal("jittered 60s period not detected")
	}
	if det.Period < 57 || det.Period > 63 {
		t.Errorf("period = %d, want ~60", det.Period)
	}
}

func TestDetectRejectsNoise(t *testing.T) {
	// Poisson-like random arrivals must not produce a period, across
	// several seeds (the threshold is a ~99% bound, so allow one hit).
	detections := 0
	for seed := uint64(0); seed < 5; seed++ {
		rng := stats.NewRNG(100 + seed)
		x := make([]float64, 600)
		for i := range x {
			if rng.Bool(0.05) {
				x[i] = 1
			}
		}
		if _, ok, err := Detect(x, DefaultDetectorConfig(), rng); err != nil {
			t.Fatal(err)
		} else if ok {
			detections++
		}
	}
	if detections > 1 {
		t.Errorf("noise produced %d/5 detections", detections)
	}
}

func TestDetectRejectsConstant(t *testing.T) {
	rng := stats.NewRNG(3)
	x := make([]float64, 300)
	for i := range x {
		x[i] = 2
	}
	if _, ok, err := Detect(x, DefaultDetectorConfig(), rng); err != nil {
		t.Fatal(err)
	} else if ok {
		t.Error("constant signal reported periodic")
	}
}

func TestDetectTooShort(t *testing.T) {
	rng := stats.NewRNG(4)
	_, ok, err := Detect([]float64{1, 0, 1}, DefaultDetectorConfig(), rng)
	if err != nil {
		t.Fatal(err)
	}
	if ok {
		t.Error("3-sample signal reported periodic")
	}
}

func TestDetectEmptyErrors(t *testing.T) {
	rng := stats.NewRNG(5)
	if _, _, err := Detect(nil, DefaultDetectorConfig(), rng); err == nil {
		t.Error("empty signal should error")
	}
}

func TestDetectDeterministic(t *testing.T) {
	x := periodicSignal(600, 15, false, nil)
	a, okA, _ := Detect(x, DefaultDetectorConfig(), stats.NewRNG(9))
	b, okB, _ := Detect(x, DefaultDetectorConfig(), stats.NewRNG(9))
	if okA != okB || a != b {
		t.Errorf("same seed diverged: %+v/%v vs %+v/%v", a, okA, b, okB)
	}
}

func TestDetectFewerPermutationsStillFindsStrongPeriod(t *testing.T) {
	rng := stats.NewRNG(11)
	x := periodicSignal(600, 20, false, nil)
	cfg := DetectorConfig{Permutations: 10, MinLag: 2, MaxLagFrac: 0.5}
	_, ok, err := Detect(x, cfg, rng)
	if err != nil {
		t.Fatal(err)
	}
	if !ok {
		t.Error("x=10 missed a strong period")
	}
}

func TestHillClimb(t *testing.T) {
	// ACF with a local max at lag 10.
	acf := make([]float64, 50)
	for i := range acf {
		d := i - 10
		acf[i] = 1.0 / (1.0 + float64(d*d))
	}
	acf[0] = 1
	if lag, ok := hillClimb(acf, 8, 25); !ok || lag != 10 {
		t.Errorf("hillClimb from 8 = %d, %v", lag, ok)
	}
	if lag, ok := hillClimb(acf, 13, 25); !ok || lag != 10 {
		t.Errorf("hillClimb from 13 = %d, %v", lag, ok)
	}
	if _, ok := hillClimb(acf, 1, 25); ok {
		t.Error("lag below minimum accepted")
	}
	if _, ok := hillClimb(acf, 30, 25); ok {
		t.Error("lag above maximum accepted")
	}
}

func TestDetectMultipleSpikesPicksStrongest(t *testing.T) {
	// Overlay period 20 (strong) and period 33 (weak).
	rng := stats.NewRNG(13)
	x := make([]float64, 660)
	for i := 0; i < len(x); i += 20 {
		x[i] += 3
	}
	for i := 0; i < len(x); i += 33 {
		x[i] += 1
	}
	det, ok, err := Detect(x, DefaultDetectorConfig(), rng)
	if err != nil || !ok {
		t.Fatalf("detection failed: %v %v", ok, err)
	}
	if det.Period < 18 || det.Period > 22 {
		t.Errorf("period = %d, want ~20 (the dominant one)", det.Period)
	}
}
