package ingest

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/logfmt"
	"repro/internal/obs"
	"repro/internal/resilience"
)

// entryPoint is one way of reading a log tolerantly.
type entryPoint struct {
	name string
	read func(data []byte, opts Options, fn func(*logfmt.Record) error) (Stats, error)
}

// sequentialEntry reads through a TolerantReader over the strict
// reader mk builds.
func sequentialEntry(mk func(io.Reader) (logfmt.RecordReader, error)) entryPoint {
	return entryPoint{"TolerantReader", func(data []byte, opts Options, fn func(*logfmt.Record) error) (Stats, error) {
		rd, err := mk(bytes.NewReader(data))
		if err != nil {
			return Stats{}, err
		}
		tr := NewTolerantReader(rd, opts)
		err = tr.ForEach(fn)
		return tr.Stats(), err
	}}
}

// entryPoints lists every in-memory entry point that can read ext
// ("tsv", "jsonl", "cdnc"), the sequential TolerantReader first, then
// the pipeline at each worker count.
func entryPoints(ext string, workers ...int) []entryPoint {
	if ext == "cdnc" {
		eps := []entryPoint{sequentialEntry(func(r io.Reader) (logfmt.RecordReader, error) {
			return logfmt.NewChunkReader(r), nil
		})}
		for _, w := range workers {
			w := w
			eps = append(eps, entryPoint{fmt.Sprintf("RunChunks/workers=%d", w),
				func(data []byte, opts Options, fn func(*logfmt.Record) error) (Stats, error) {
					return RunChunks(context.Background(), bytes.NewReader(data),
						PipelineConfig{Workers: w, Options: opts}, fn)
				}})
		}
		return eps
	}
	format := logfmt.FormatForPath("x." + ext)
	eps := []entryPoint{sequentialEntry(func(r io.Reader) (logfmt.RecordReader, error) {
		return logfmt.NewReader(r, format)
	})}
	for _, w := range workers {
		w := w
		eps = append(eps, entryPoint{fmt.Sprintf("Run/workers=%d", w),
			func(data []byte, opts Options, fn func(*logfmt.Record) error) (Stats, error) {
				return Run(context.Background(), bytes.NewReader(data), format,
					PipelineConfig{Workers: w, Options: opts}, fn)
			}})
	}
	return eps
}

// fileEntry reads data through FileSource from a file named for ext.
func fileEntry(dir, ext string, workers int) entryPoint {
	return entryPoint{"FileSource", func(data []byte, opts Options, fn func(*logfmt.Record) error) (Stats, error) {
		path := filepath.Join(dir, "logs."+ext)
		if err := os.WriteFile(path, data, 0o644); err != nil {
			return Stats{}, err
		}
		src := &FileSource{Path: path, Config: PipelineConfig{Workers: workers, Options: opts}}
		err := src.Each(fn)
		return src.LastStats, err
	}}
}

// outcome is everything one read produced.
type outcome struct {
	delivered []byte // TSV re-encoding of the delivered record sequence
	stats     Stats
	dead      []byte // dead-letter JSONL
	err       error
}

// readAll runs one entry point over data with a fresh dead letter and
// registry, and checks the metrics mirror the returned Stats.
func readAll(t *testing.T, ep entryPoint, ext string, data []byte) outcome {
	t.Helper()
	var dead bytes.Buffer
	dl := NewDeadLetter(&dead)
	reg := obs.NewRegistry()
	var o outcome
	o.stats, o.err = ep.read(data, Options{MaxErrorRate: 0.9, MinRecords: 8,
		DeadLetter: dl, Metrics: NewInstrumentation(reg)},
		func(r *logfmt.Record) error {
			o.delivered = logfmt.AppendTSV(o.delivered, r)
			return nil
		})
	if err := dl.Flush(); err != nil {
		t.Fatal(err)
	}
	o.dead = dead.Bytes()
	if dl.Count() != o.stats.FramesDropped {
		t.Errorf("%s: %d dead-letter entries, want FramesDropped = %d", ep.name, dl.Count(), o.stats.FramesDropped)
	}

	counter := func(name string, labels ...string) int64 { return reg.Counter(name, labels...).Value() }
	want := map[string]int64{
		"ingest_records_total":     o.stats.Records,
		"ingest_quarantined_total": o.stats.Quarantined,
	}
	got := map[string]int64{
		"ingest_records_total":     counter("ingest_records_total"),
		"ingest_quarantined_total": counter("ingest_quarantined_total"),
	}
	// Only the chunk container can lose stream position, so only it
	// reports the skip family, under its DecodeError format name.
	if ext == "cdnc" {
		for name, v := range map[string]int64{
			"ingest_resyncs_total":         o.stats.Resyncs,
			"ingest_skipped_bytes_total":   o.stats.BytesSkipped,
			"ingest_dropped_frames_total":  o.stats.FramesDropped,
			"ingest_dropped_records_total": o.stats.Quarantined,
		} {
			want[name] = v
			got[name] = counter(name, "format", "chunk")
		}
	}
	for name, v := range want {
		if got[name] != v {
			t.Errorf("%s: %s = %d, want %d (stats %+v)", ep.name, name, got[name], v, o.stats)
		}
	}
	return o
}

// TestEntryPointsAgree is the differential test behind the package's
// one-path claim: one seeded corpus in each on-disk format, clean and
// corrupted, must come back as the same record sequence, the same
// Stats, and a byte-identical dead letter from every entry point that
// can read the format.
func TestEntryPointsAgree(t *testing.T) {
	recs := synthRecords(t, 1200)
	jsonl := func() []byte {
		var buf bytes.Buffer
		w := logfmt.NewWriter(&buf, logfmt.FormatJSONL)
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
	for _, f := range []struct {
		ext     string
		clean   []byte
		corrupt resilience.CorruptingReader
		cutTail bool
		resyncs bool
	}{
		// The text rows also cut the stream inside its last line, so
		// the final quarantined span has no newline to count.
		{ext: "tsv", clean: encodeTSV(recs), cutTail: true,
			corrupt: resilience.CorruptingReader{Seed: 14, BitFlipRate: 2e-4}},
		{ext: "jsonl", clean: jsonl(), cutTail: true,
			corrupt: resilience.CorruptingReader{Seed: 14, BitFlipRate: 2e-4}},
		// Bit flips fail payload checksums (frame intact); garbage runs
		// shift the framing and force header resyncs.
		{ext: "cdnc", clean: encodeChunked(t, recs, logfmt.ChunkConfig{Codec: logfmt.CodecFlate, ChunkRecords: 50}), resyncs: true,
			corrupt: resilience.CorruptingReader{Seed: 14, BitFlipRate: 2e-4, GarbageRate: 1e-4, GarbageLen: 24, SkipBytes: 6}},
	} {
		f := f
		eps := append(entryPoints(f.ext, 1, 4), fileEntry(t.TempDir(), f.ext, 4))

		t.Run(f.ext+"/clean", func(t *testing.T) {
			for _, ep := range eps {
				o := readAll(t, ep, f.ext, f.clean)
				if o.err != nil {
					t.Fatalf("%s: %v", ep.name, o.err)
				}
				if want := (Stats{Records: int64(len(recs))}); o.stats != want {
					t.Errorf("%s: stats %+v, want %+v", ep.name, o.stats, want)
				}
				if !bytes.Equal(o.delivered, encodeTSV(recs)) {
					t.Errorf("%s: delivered records differ from the corpus", ep.name)
				}
				if len(o.dead) != 0 {
					t.Errorf("%s: dead letter not empty: %s", ep.name, o.dead)
				}
			}
		})

		t.Run(f.ext+"/corrupt", func(t *testing.T) {
			cr := f.corrupt
			cr.R = bytes.NewReader(f.clean)
			if f.cutTail { // ten bytes into the last line
				cr.TruncateAt = int64(bytes.LastIndexByte(f.clean[:len(f.clean)-1], '\n')) + 11
			}
			data, err := io.ReadAll(&cr)
			if err != nil {
				t.Fatal(err)
			}
			ref := readAll(t, eps[0], f.ext, data)
			if ref.err != nil {
				t.Fatalf("%s: %v (stats %+v)", eps[0].name, ref.err, ref.stats)
			}
			if ref.stats.Records == 0 || ref.stats.FramesDropped < 2 {
				t.Fatalf("corruption too weak or too strong to tell paths apart: %+v", ref.stats)
			}
			if f.resyncs && ref.stats.BytesSkipped == 0 {
				t.Fatalf("no resync skipped any bytes: %+v", ref.stats)
			}
			t.Logf("%s: %+v", eps[0].name, ref.stats)
			for _, ep := range eps[1:] {
				o := readAll(t, ep, f.ext, data)
				if o.err != nil {
					t.Errorf("%s: %v", ep.name, o.err)
				}
				if o.stats != ref.stats {
					t.Errorf("%s: stats %+v, want %+v as %s", ep.name, o.stats, ref.stats, eps[0].name)
				}
				if !bytes.Equal(o.delivered, ref.delivered) {
					t.Errorf("%s: delivered record sequence differs from %s", ep.name, eps[0].name)
				}
				if !bytes.Equal(o.dead, ref.dead) {
					t.Errorf("%s: dead letter differs from %s:\n%s\nwant:\n%s", ep.name, eps[0].name, o.dead, ref.dead)
				}
			}
		})
	}
}
