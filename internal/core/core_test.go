package core

import (
	"errors"
	"os"
	"path/filepath"
	"testing"
	"time"

	"repro/internal/logfmt"
	"repro/internal/synth"
)

var t0 = time.Date(2019, 5, 1, 0, 0, 0, 0, time.UTC)

func mem(n int) MemorySource {
	recs := make(MemorySource, n)
	for i := range recs {
		recs[i] = logfmt.Record{
			Time: t0.Add(time.Duration(i) * time.Second), ClientID: uint64(i % 7),
			Method: "GET", URL: "https://x.com/a", UserAgent: "App/1 (iPhone)",
			MIMEType: "application/json", Status: 200, Bytes: 100,
			Cache: logfmt.CacheHit,
		}
	}
	return recs
}

func TestMemorySource(t *testing.T) {
	src := mem(10)
	n := 0
	if err := src.Each(func(*logfmt.Record) error { n++; return nil }); err != nil {
		t.Fatal(err)
	}
	if n != 10 {
		t.Errorf("saw %d records", n)
	}
}

func TestMemorySourceStopsOnError(t *testing.T) {
	src := mem(10)
	wantErr := errors.New("stop")
	n := 0
	err := src.Each(func(*logfmt.Record) error {
		n++
		if n == 3 {
			return wantErr
		}
		return nil
	})
	if err != wantErr || n != 3 {
		t.Errorf("err=%v n=%d", err, n)
	}
}

func TestFileSourceRoundTrip(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "logs.tsv.gz")
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	w := logfmt.NewGzipWriter(f, logfmt.FormatTSV)
	recs := mem(25)
	for i := range recs {
		if err := w.Write(&recs[i]); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	f.Close()

	n := 0
	if err := FileSource(path).Each(func(r *logfmt.Record) error {
		if err := r.Validate(); err != nil {
			return err
		}
		n++
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if n != 25 {
		t.Errorf("read %d records", n)
	}
}

func TestFileSourceMissing(t *testing.T) {
	if err := FileSource("/nonexistent/x.tsv").Each(func(*logfmt.Record) error { return nil }); err == nil {
		t.Error("missing file should error")
	}
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
	recs, err := Collect(mem(5))
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 5 {
		t.Errorf("collected %d", len(recs))
	}
	// Ensure copies, not aliases: mutate and re-check.
	recs[0].Bytes = 999
	recs2, _ := Collect(mem(5))
	if recs2[0].Bytes == 999 {
		t.Error("collect aliased records")
	}
}
