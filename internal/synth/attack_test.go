package synth

import (
	"strings"
	"testing"
	"time"

	"repro/internal/logfmt"
)

func attackTestConfig() Config {
	cfg := ShortTermConfig(99, 0.001)
	cfg.Duration = 5 * time.Minute
	cfg.TargetRequests = 12_000
	cfg.Attack = AttackConfig{
		CacheBustShare: 0.20,
		FlashShare:     0.15,
		FlashObjects:   4,
		BotShare:       0.15,
		AmplifyShare:   0.10,
	}
	return cfg
}

func collect(t *testing.T, cfg Config) []logfmt.Record {
	t.Helper()
	var recs []logfmt.Record
	if err := Generate(cfg, func(r *logfmt.Record) error {
		recs = append(recs, *r)
		return nil
	}); err != nil {
		t.Fatalf("Generate: %v", err)
	}
	return recs
}

// TestAttackOverlayPreservesBenignStream is the overlay invariant: the
// benign stream of a seed is byte-identical, in order, whether or not
// an attack is configured on top of it.
func TestAttackOverlayPreservesBenignStream(t *testing.T) {
	cfg := attackTestConfig()
	combined := collect(t, cfg)
	benignCfg := cfg
	benignCfg.Attack = AttackConfig{}
	benign := collect(t, benignCfg)

	if len(combined) <= len(benign) {
		t.Fatalf("combined stream (%d) not larger than benign (%d)", len(combined), len(benign))
	}
	mask, err := AttackMask(combined, benign)
	if err != nil {
		t.Fatal(err)
	}
	attacks := 0
	for _, m := range mask {
		if m {
			attacks++
		}
	}
	if attacks != len(combined)-len(benign) {
		t.Fatalf("mask marks %d attacks, want %d", attacks, len(combined)-len(benign))
	}
	// The configured share should be roughly met (fleet sizing is
	// approximate; allow a wide band).
	want := cfg.Attack.Sum() * float64(cfg.TargetRequests)
	if f := float64(attacks); f < 0.5*want || f > 1.6*want {
		t.Errorf("%d attack records, want within [0.5,1.6]x of %.0f", attacks, want)
	}
}

// TestAttackDeterministic checks equal configs give identical combined
// streams.
func TestAttackDeterministic(t *testing.T) {
	cfg := attackTestConfig()
	a := collect(t, cfg)
	b := collect(t, cfg)
	if len(a) != len(b) {
		t.Fatalf("lengths differ: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("record %d differs:\n%+v\n%+v", i, a[i], b[i])
		}
	}
}

// TestAttackShapes verifies each population's signature in the labeled
// attack subset.
func TestAttackShapes(t *testing.T) {
	cfg := attackTestConfig()
	combined := collect(t, cfg)
	benignCfg := cfg
	benignCfg.Attack = AttackConfig{}
	mask, err := AttackMask(combined, collect(t, benignCfg))
	if err != nil {
		t.Fatal(err)
	}

	var bust, flash, amplify, bot int
	bustQueries := map[string]bool{}
	flashURLs := map[string]bool{}
	var amplifyBytes, amplifyN int64
	for i, r := range combined {
		if !mask[i] {
			continue
		}
		switch {
		case strings.Contains(r.URL, "?cb="):
			bust++
			bustQueries[r.URL] = true
		case strings.Contains(r.URL, "conv=identity"):
			amplify++
			amplifyBytes += r.Bytes
			amplifyN++
			if r.Cache != logfmt.CacheMiss {
				t.Errorf("amplification record cached %v, want miss: %s", r.Cache, r.URL)
			}
		case strings.Contains(r.URL, "/v1/"):
			// Flash or bot content fetch; split below by UA presence on
			// the hot set.
			flashURLs[r.URL] = true
			bot++
		}
	}
	if bust == 0 || amplify == 0 || bot == 0 {
		t.Fatalf("missing populations: bust=%d amplify=%d flash/bot=%d", bust, amplify, bot)
	}
	// Cache busting: every request is a unique cache key.
	if len(bustQueries) != bust {
		t.Errorf("cache-bust queries not unique: %d distinct of %d requests", len(bustQueries), bust)
	}
	// Flash crowd: its hot set is a handful of objects, so the distinct
	// content URLs touched by flash+bot stay far below the request count.
	if flash = len(flashURLs); flash >= bot {
		t.Errorf("no URL concentration: %d distinct URLs over %d requests", flash, bot)
	}
	// Amplification: large bodies forced from origin.
	if mean := amplifyBytes / amplifyN; mean < 20_000 {
		t.Errorf("amplification mean body %d bytes, want large (>=20k)", mean)
	}
}

// TestAttackWindow confirms Start/Duration bound the overlay in time.
func TestAttackWindow(t *testing.T) {
	cfg := attackTestConfig()
	cfg.Attack.Start = 2 * time.Minute
	cfg.Attack.Duration = time.Minute
	combined := collect(t, cfg)
	benignCfg := cfg
	benignCfg.Attack = AttackConfig{}
	mask, err := AttackMask(combined, collect(t, benignCfg))
	if err != nil {
		t.Fatal(err)
	}
	lo := cfg.Start.Add(cfg.Attack.Start)
	hi := lo.Add(cfg.Attack.Duration)
	n := 0
	for i, r := range combined {
		if !mask[i] {
			continue
		}
		n++
		if r.Time.Before(lo) || r.Time.After(hi) {
			t.Fatalf("attack record at %v outside window [%v, %v]", r.Time, lo, hi)
		}
	}
	if n == 0 {
		t.Fatal("no attack records in window")
	}
}

// TestAttackConfigValidate exercises the validation bounds.
func TestAttackConfigValidate(t *testing.T) {
	cfg := attackTestConfig()
	cfg.Attack.BotShare = -0.1
	if err := cfg.Validate(); err == nil {
		t.Error("negative share accepted")
	}
	cfg.Attack.BotShare = 5
	if err := cfg.Validate(); err == nil {
		t.Error("share > 4 accepted")
	}
	cfg.Attack = AttackConfig{CacheBustShare: 0.5, Start: -time.Second}
	if err := cfg.Validate(); err == nil {
		t.Error("negative start accepted")
	}
	cfg.Attack = AttackConfig{CacheBustShare: 0.5}
	if err := cfg.Validate(); err != nil {
		t.Errorf("valid attack config rejected: %v", err)
	}
}
