package ngram

import (
	"testing"
	"time"
)

func stepFlow(start time.Time, gaps []time.Duration, urls []string) []Step {
	flow := make([]Step, len(urls))
	at := start
	for i, u := range urls {
		if i > 0 {
			at = at.Add(gaps[i-1])
		}
		flow[i] = Step{URL: u, Time: at}
	}
	return flow
}

func TestTimedModelLearnsGaps(t *testing.T) {
	tm := NewTimedModel(1)
	urls := []string{"a", "b", "c"}
	gaps := []time.Duration{10 * time.Second, 20 * time.Second}
	for i := 0; i < 5; i++ {
		tm.TrainTimed(stepFlow(t0, gaps, urls))
	}
	gab, ok := tm.ExpectedGap("a", "b")
	if !ok {
		t.Fatal("gap a->b unknown")
	}
	if gab < 9*time.Second || gab > 11*time.Second {
		t.Errorf("gap a->b = %v, want ~10s", gab)
	}
	gbc, _ := tm.ExpectedGap("b", "c")
	if gbc < 19*time.Second || gbc > 21*time.Second {
		t.Errorf("gap b->c = %v, want ~20s", gbc)
	}
	if _, ok := tm.ExpectedGap("a", "c"); ok {
		t.Error("unobserved transition has a gap")
	}
	if _, ok := tm.ExpectedGap("zz", "b"); ok {
		t.Error("unknown token has a gap")
	}
}

func TestTimedModelGeometricMeanRobustToOutliers(t *testing.T) {
	tm := NewTimedModel(1)
	// Mostly 10 s gaps with one huge outlier.
	for i := 0; i < 9; i++ {
		tm.TrainTimed(stepFlow(t0, []time.Duration{10 * time.Second}, []string{"a", "b"}))
	}
	tm.TrainTimed(stepFlow(t0, []time.Duration{10 * time.Hour}, []string{"a", "b"}))
	gap, _ := tm.ExpectedGap("a", "b")
	// Arithmetic mean would be ~1 h; geometric stays near 10-25 s.
	if gap > time.Minute {
		t.Errorf("gap = %v, outlier dominated", gap)
	}
}

func TestTimedModelShortFlowIgnored(t *testing.T) {
	tm := NewTimedModel(1)
	tm.TrainTimed([]Step{{URL: "only", Time: t0}})
	tm.TrainTimed(nil)
	if tm.VocabSize() != 0 {
		t.Error("short flows should not train")
	}
}

func TestTimedModelSubMillisecondGapClamped(t *testing.T) {
	tm := NewTimedModel(1)
	tm.TrainTimed(stepFlow(t0, []time.Duration{time.Microsecond}, []string{"a", "b"}))
	gap, ok := tm.ExpectedGap("a", "b")
	if !ok || gap <= 0 {
		t.Errorf("gap = %v ok=%v", gap, ok)
	}
}

func TestSplitFlowsMatchesSplit(t *testing.T) {
	s := NewSequencer()
	s.TestFraction = 0.5
	for c := uint64(0); c < 40; c++ {
		for i := 0; i < 4; i++ {
			r := seqRec(c, "https://x.com/o"+string(rune('a'+i)), t0.Add(time.Duration(i)*time.Second))
			s.Observe(&r)
		}
	}
	trainU, testU := s.Split()
	trainF, testF := s.SplitFlows()
	if len(trainU) != len(trainF) || len(testU) != len(testF) {
		t.Fatal("split sizes differ between Split and SplitFlows")
	}
	for i := range trainU {
		if len(trainU[i]) != len(trainF[i]) {
			t.Fatal("flow lengths differ")
		}
		for j := range trainU[i] {
			if trainU[i][j] != trainF[i][j].URL {
				t.Fatal("URL order differs")
			}
		}
		// Times are non-decreasing.
		for j := 1; j < len(trainF[i]); j++ {
			if trainF[i][j].Time.Before(trainF[i][j-1].Time) {
				t.Fatal("times not sorted")
			}
		}
	}
}
