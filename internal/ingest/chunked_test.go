package ingest

import (
	"bytes"
	"context"
	"errors"
	"io"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/logfmt"
	"repro/internal/resilience"
)

// encodeChunked encodes recs into a chunk container.
func encodeChunked(t testing.TB, recs []logfmt.Record, cfg logfmt.ChunkConfig) []byte {
	t.Helper()
	var buf bytes.Buffer
	w := logfmt.NewChunkWriter(&buf, cfg)
	for i := range recs {
		if err := w.Write(&recs[i]); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestRunChunksOrderedDelivery checks the parallel decode pipeline
// delivers every record in stream order despite chunks completing out
// of order on the worker pool.
func TestRunChunksOrderedDelivery(t *testing.T) {
	recs := synthRecords(t, 1000)
	data := encodeChunked(t, recs, logfmt.ChunkConfig{Codec: logfmt.CodecFlate, ChunkRecords: 37})

	cfg := PipelineConfig{Workers: 4}
	var got []logfmt.Record
	stats, err := RunChunks(context.Background(), bytes.NewReader(data), cfg, func(r *logfmt.Record) error {
		got = append(got, *r)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if stats.Records != 1000 || stats.Quarantined != 0 {
		t.Fatalf("stats = %+v, want 1000 records, 0 quarantined", stats)
	}
	if len(got) != len(recs) {
		t.Fatalf("delivered %d records, want %d", len(got), len(recs))
	}
	for i := range recs {
		if !got[i].Time.Equal(recs[i].Time) || got[i].URL != recs[i].URL || got[i].Bytes != recs[i].Bytes {
			t.Fatalf("record %d out of order or corrupted: got %+v want %+v", i, got[i], recs[i])
		}
	}
}

// TestRunChunksChaosBitFlips drives a chunk container through
// resilience.CorruptingReader and asserts the accounting balances:
// every record is either delivered or quarantined, and bytes skipped by
// resyncs are reported.
func TestRunChunksChaosBitFlips(t *testing.T) {
	recs := synthRecords(t, 2000)
	data := encodeChunked(t, recs, logfmt.ChunkConfig{Codec: logfmt.CodecFlate, ChunkRecords: 50})

	cr := &resilience.CorruptingReader{
		R:           bytes.NewReader(data),
		Seed:        42,
		BitFlipRate: 1e-4,
		SkipBytes:   6, // protect the file header; aim faults at chunks
	}
	cfg := PipelineConfig{Workers: 4, Options: Options{MaxErrorRate: 0.95, MinRecords: 1}}
	var got int64
	stats, err := RunChunks(context.Background(), cr, cfg, func(r *logfmt.Record) error {
		got++
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if cr.Faults() == 0 {
		t.Fatal("chaos injected no faults; raise BitFlipRate")
	}
	if stats.Records != got {
		t.Fatalf("stats.Records = %d, delivered %d", stats.Records, got)
	}
	if stats.Quarantined == 0 {
		t.Fatal("bit flips quarantined nothing")
	}
	// Chunk quarantine drops whole chunks of 50: every record is
	// accounted for exactly once unless framing was lost (then the span's
	// claimed count is unknown and counts as 1).
	if total := stats.Records + stats.Quarantined; total > 2000 {
		t.Fatalf("accounting overflow: %d records + %d quarantined > 2000", stats.Records, stats.Quarantined)
	}
	if stats.FramesDropped == 0 || stats.Resyncs == 0 {
		t.Fatalf("stats = %+v, want dropped frames and resyncs", stats)
	}
	t.Logf("chaos: %d faults -> %+v", cr.Faults(), stats)
}

// TestRunChunksBudget asserts a mostly-corrupt container trips
// ErrBudgetExceeded instead of silently analyzing a remnant.
func TestRunChunksBudget(t *testing.T) {
	recs := synthRecords(t, 1000)
	data := encodeChunked(t, recs, logfmt.ChunkConfig{Codec: logfmt.CodecFlate, ChunkRecords: 50})

	// Flip a byte in every other chunk payload.
	sc := logfmt.NewChunkScanner(bytes.NewReader(data))
	corrupted := append([]byte(nil), data...)
	var rc logfmt.RawChunk
	for i := 0; ; i++ {
		err := sc.Next(&rc)
		if err == io.EOF {
			break
		}
		if err != nil {
			t.Fatal(err)
		}
		if i%2 == 1 {
			corrupted[rc.Offset+24+rc.FrameLen()/2] ^= 0x10
		}
	}

	cfg := PipelineConfig{Workers: 2, Options: Options{MaxErrorRate: 0.10, MinRecords: 100}}
	_, err := RunChunks(context.Background(), bytes.NewReader(corrupted), cfg, func(r *logfmt.Record) error { return nil })
	if !errors.Is(err, ErrBudgetExceeded) {
		t.Fatalf("err = %v, want ErrBudgetExceeded", err)
	}
}

// TestRunChunksCancellation cancels mid-stream and expects a prompt
// ctx.Canceled with no goroutine leak (the race detector would flag
// one).
func TestRunChunksCancellation(t *testing.T) {
	recs := synthRecords(t, 2000)
	data := encodeChunked(t, recs, logfmt.ChunkConfig{Codec: logfmt.CodecFlate, ChunkRecords: 10})

	ctx, cancel := context.WithCancel(context.Background())
	var n int
	_, err := RunChunks(ctx, bytes.NewReader(data), PipelineConfig{Workers: 4}, func(r *logfmt.Record) error {
		n++
		if n == 100 {
			cancel()
		}
		return ctx.Err()
	})
	cancel()
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
}

// TestRunChunksFnError propagates the consumer's error with partial
// stats.
func TestRunChunksFnError(t *testing.T) {
	recs := synthRecords(t, 200)
	data := encodeChunked(t, recs, logfmt.ChunkConfig{ChunkRecords: 10})
	boom := errors.New("boom")
	var n int
	stats, err := RunChunks(context.Background(), bytes.NewReader(data), PipelineConfig{}, func(r *logfmt.Record) error {
		n++
		if n == 42 {
			return boom
		}
		return nil
	})
	if !errors.Is(err, boom) {
		t.Fatalf("err = %v, want boom", err)
	}
	if stats.Records != 42 {
		t.Fatalf("stats.Records = %d, want 42", stats.Records)
	}
}

// TestRunChunksDeadLetter checks a quarantined chunk lands in the dead
// letter with its position.
func TestRunChunksDeadLetter(t *testing.T) {
	recs := synthRecords(t, 300)
	data := encodeChunked(t, recs, logfmt.ChunkConfig{Codec: logfmt.CodecGzip, ChunkRecords: 100})
	sc := logfmt.NewChunkScanner(bytes.NewReader(data))
	var rc logfmt.RawChunk
	for i := 0; i < 2; i++ {
		if err := sc.Next(&rc); err != nil {
			t.Fatal(err)
		}
	}
	corrupted := append([]byte(nil), data...)
	corrupted[rc.Offset+24+rc.FrameLen()/2] ^= 0x01

	var dead bytes.Buffer
	dl := NewDeadLetter(&dead)
	cfg := PipelineConfig{Options: Options{MaxErrorRate: 0.9, DeadLetter: dl}}
	stats, err := RunChunks(context.Background(), bytes.NewReader(corrupted), cfg, func(r *logfmt.Record) error { return nil })
	if err != nil {
		t.Fatal(err)
	}
	if err := dl.Flush(); err != nil {
		t.Fatal(err)
	}
	// Chunk-granularity quarantine: exactly the bad chunk's claimed
	// record count is lost, so the budget stays record-denominated.
	if want := (Stats{Records: 200, Quarantined: 100, FramesDropped: 1, Resyncs: 1}); stats != want {
		t.Fatalf("stats = %+v, want %+v", stats, want)
	}
	if !bytes.Contains(dead.Bytes(), []byte(`"format":"chunk"`)) {
		t.Fatalf("dead letter missing chunk entry: %s", dead.Bytes())
	}
}

// TestFileSourceChunkAutoDetect writes a chunk container under a .tsv
// name and checks FileSource routes it to the parallel chunk pipeline
// by magic bytes.
func TestFileSourceChunkAutoDetect(t *testing.T) {
	recs := synthRecords(t, 500)
	data := encodeChunked(t, recs, logfmt.ChunkConfig{Codec: logfmt.CodecFlate, ChunkRecords: 64})
	path := filepath.Join(t.TempDir(), "mislabeled.tsv")
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	src := &FileSource{Path: path, Config: PipelineConfig{Workers: 2}}
	var n int
	err := src.Each(func(r *logfmt.Record) error {
		if n < len(recs) && (!r.Time.Equal(recs[n].Time) || r.URL != recs[n].URL) {
			t.Fatalf("record %d out of order", n)
		}
		n++
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if n != 500 || src.LastStats.Records != 500 {
		t.Fatalf("delivered %d (stats %+v), want 500", n, src.LastStats)
	}
}
