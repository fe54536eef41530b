package ingest

import (
	"bytes"
	"compress/gzip"
	"context"
	"errors"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/logfmt"
)

func TestPipelineOrderedDelivery(t *testing.T) {
	recs := synthRecords(t, 2000)
	stream := encodeTSV(recs)
	cfg := PipelineConfig{Workers: 4}
	var seen int
	stats, err := Run(context.Background(), bytes.NewReader(stream), logfmt.FormatTSV, cfg,
		func(r *logfmt.Record) error {
			if !r.Time.Equal(recs[seen].Time) || r.ClientID != recs[seen].ClientID {
				t.Fatalf("record %d out of order: got client %d at %v, want client %d at %v",
					seen, r.ClientID, r.Time, recs[seen].ClientID, recs[seen].Time)
			}
			seen++
			return nil
		})
	if err != nil {
		t.Fatal(err)
	}
	if seen != len(recs) || stats.Records != int64(len(recs)) {
		t.Errorf("delivered %d (stats %d), want %d", seen, stats.Records, len(recs))
	}
}

// TestPipelineBudget: a stream with every 3rd line corrupt blows the 5%
// budget. (That every path quarantines a given bad line identically is
// TestEntryPointsAgree's.)
func TestPipelineBudget(t *testing.T) {
	recs := synthRecords(t, 1000)
	lines := strings.SplitAfter(string(encodeTSV(recs)), "\n")
	for i := 0; i < len(lines)-1; i += 3 {
		lines[i] = "x\ty\n"
	}
	_, err := Run(context.Background(), strings.NewReader(strings.Join(lines, "")),
		logfmt.FormatTSV, PipelineConfig{Options: Options{MaxErrorRate: 0.05}},
		func(*logfmt.Record) error { return nil })
	if !errors.Is(err, ErrBudgetExceeded) {
		t.Errorf("want ErrBudgetExceeded, got %v", err)
	}
}

func TestPipelineCancellation(t *testing.T) {
	recs := synthRecords(t, 3000)
	stream := encodeTSV(recs)
	ctx, cancel := context.WithCancel(context.Background())
	var seen int64
	stats, err := Run(ctx, bytes.NewReader(stream), logfmt.FormatTSV,
		PipelineConfig{Workers: 2},
		func(*logfmt.Record) error {
			seen++
			if seen == 100 {
				cancel()
			}
			return nil
		})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("want context.Canceled, got %v", err)
	}
	// Partial progress is reported, and bounded: the pipeline can only
	// have a few batches in flight past the cancel point.
	if stats.Records < 100 || stats.Records >= int64(len(recs)) {
		t.Errorf("partial stats.Records = %d, want >= 100 and < %d", stats.Records, len(recs))
	}
}

func TestPipelineConsumerErrorStops(t *testing.T) {
	recs := synthRecords(t, 500)
	boom := errors.New("boom")
	var seen int64
	_, err := Run(context.Background(), bytes.NewReader(encodeTSV(recs)), logfmt.FormatTSV,
		PipelineConfig{}, func(*logfmt.Record) error {
			seen++
			if seen == 42 {
				return boom
			}
			return nil
		})
	if !errors.Is(err, boom) || seen != 42 {
		t.Errorf("err=%v seen=%d, want boom at 42", err, seen)
	}
}

func TestPipelineGzipInput(t *testing.T) {
	recs := synthRecords(t, 200)
	var buf bytes.Buffer
	gz := gzip.NewWriter(&buf)
	gz.Write(encodeTSV(recs))
	gz.Close()
	stats, err := Run(context.Background(), &buf, logfmt.FormatTSV, PipelineConfig{},
		func(*logfmt.Record) error { return nil })
	if err != nil || stats.Records != int64(len(recs)) {
		t.Errorf("gzip run: records=%d err=%v, want %d, nil", stats.Records, err, len(recs))
	}
}

// TestFileSourceTextAndBinary reads a text log and a binary one (the
// chunk container) through FileSource, cancels a read part-way, and
// checks that a log in the retired binary stream format and a missing
// file are refused.
func TestFileSourceTextAndBinary(t *testing.T) {
	recs := synthRecords(t, 300)
	dir := t.TempDir()

	tsvPath := filepath.Join(dir, "logs.tsv")
	if err := os.WriteFile(tsvPath, encodeTSV(recs), 0o644); err != nil {
		t.Fatal(err)
	}
	binPath := filepath.Join(dir, "logs.cdnc")
	stream, frames := encodeChunkFrames(t, recs)
	stream[frames[7][1]-1] = 0xEE // one corrupt record
	if err := os.WriteFile(binPath, stream, 0o644); err != nil {
		t.Fatal(err)
	}

	src := &FileSource{Path: tsvPath}
	var n int64
	if err := src.Each(func(*logfmt.Record) error { n++; return nil }); err != nil {
		t.Fatal(err)
	}
	if n != int64(len(recs)) || src.LastStats.Records != n {
		t.Errorf("tsv: delivered %d (stats %d), want %d", n, src.LastStats.Records, len(recs))
	}

	src = &FileSource{Path: binPath}
	n = 0
	if err := src.Each(func(*logfmt.Record) error { n++; return nil }); err != nil {
		t.Fatal(err)
	}
	if n != int64(len(recs)-1) || src.LastStats.Quarantined != 1 {
		t.Errorf("chunk: delivered %d, quarantined %d; want %d and 1",
			n, src.LastStats.Quarantined, len(recs)-1)
	}

	// Cancellation cuts a read short with the context's error.
	ctx, cancel := context.WithCancel(context.Background())
	src = &FileSource{Path: binPath, Ctx: ctx}
	n = 0
	err := src.Each(func(*logfmt.Record) error {
		n++
		if n == 50 {
			cancel()
		}
		return nil
	})
	if !errors.Is(err, context.Canceled) || n >= int64(len(recs)) {
		t.Errorf("cancelled read: n=%d err=%v", n, err)
	}

	// The retired binary stream is refused by its magic whatever the
	// name, and by its name whatever the bytes, never parsed as TSV.
	var cdnj bytes.Buffer
	w := logfmt.NewBinaryWriter(&cdnj)
	w.Write(&recs[0])
	w.Close()
	for name, data := range map[string][]byte{"old.tsv": cdnj.Bytes(), "old.cdnb.gz": encodeTSV(recs)} {
		path := filepath.Join(dir, name)
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		src = &FileSource{Path: path}
		err := src.Each(func(*logfmt.Record) error { return nil })
		if !errors.Is(err, logfmt.ErrBinaryStream) || !strings.Contains(err.Error(), ".cdnc") {
			t.Errorf("%s: err=%v, want logfmt.ErrBinaryStream naming .cdnc", name, err)
		}
	}

	src = &FileSource{Path: filepath.Join(dir, "missing.tsv")}
	if err := src.Each(func(*logfmt.Record) error { return nil }); !errors.Is(err, os.ErrNotExist) {
		t.Errorf("missing file: err=%v, want os.ErrNotExist", err)
	}
}
