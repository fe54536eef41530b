package core

import (
	"testing"

	"repro/internal/logfmt"
	"repro/internal/synth"
)

// reused yields n records through one reused *logfmt.Record, as the
// file readers do.
type reused int

func (n reused) Each(fn func(*logfmt.Record) error) error {
	var r logfmt.Record
	for i := 0; i < int(n); i++ {
		r.Bytes = int64(i)
		if err := fn(&r); err != nil {
			return err
		}
	}
	return nil
}

func TestSynthSource(t *testing.T) {
	cfg := synth.ShortTermConfig(3, 0.0004)
	n := 0
	if err := SynthSource(cfg).Each(func(*logfmt.Record) error { n++; return nil }); err != nil {
		t.Fatal(err)
	}
	if n < 1000 {
		t.Errorf("generated only %d records", n)
	}
}

func TestCollect(t *testing.T) {
	recs, err := Collect(reused(5))
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 5 {
		t.Fatalf("collected %d", len(recs))
	}
	// The source reuses one record: Collect must copy, not alias.
	for i, r := range recs {
		if r.Bytes != int64(i) {
			t.Errorf("record %d has Bytes %d: collect aliased the reused record", i, r.Bytes)
		}
	}
}
