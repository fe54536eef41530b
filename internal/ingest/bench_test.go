package ingest

import (
	"bytes"
	"context"
	"runtime"
	"testing"

	"repro/internal/logfmt"
)

// benchCorpus is the shared decode-benchmark input: one synthetic
// stream encoded per codec, so records/sec and bytes-per-record compare
// like for like. Large enough that sustained
// per-record decode cost dominates per-file setup (interner, buffers),
// matching the paper's multi-million-record workloads.
func benchCorpus(b *testing.B) []logfmt.Record {
	base := synthRecords(b, 10_000)
	recs := make([]logfmt.Record, 0, 5*len(base))
	for rep := 0; rep < 5; rep++ {
		recs = append(recs, base...)
	}
	return recs
}

func encodeChunkedBench(b *testing.B, recs []logfmt.Record, codec logfmt.Codec) []byte {
	b.Helper()
	var buf bytes.Buffer
	w := logfmt.NewChunkWriter(&buf, logfmt.ChunkConfig{Codec: codec})
	for i := range recs {
		if err := w.Write(&recs[i]); err != nil {
			b.Fatal(err)
		}
	}
	if err := w.Close(); err != nil {
		b.Fatal(err)
	}
	return buf.Bytes()
}

// reportDecode attaches the cross-format comparison metrics: decoded
// records per second and on-disk bytes per record.
func reportDecode(b *testing.B, diskBytes, records int) {
	b.ReportMetric(float64(records*b.N)/b.Elapsed().Seconds(), "records/s")
	b.ReportMetric(float64(diskBytes)/float64(records), "disk-B/rec")
}

// BenchmarkDecodeChunkSeq decodes the chunk container on one goroutine
// through the sequential ChunkReader, per codec.
func BenchmarkDecodeChunkSeq(b *testing.B) {
	recs := benchCorpus(b)
	for _, codec := range []logfmt.Codec{logfmt.CodecRaw, logfmt.CodecFlate} {
		stream := encodeChunkedBench(b, recs, codec)
		b.Run("codec="+codec.String(), func(b *testing.B) {
			b.ReportAllocs()
			b.SetBytes(int64(len(stream)))
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				rd := logfmt.NewChunkReader(bytes.NewReader(stream))
				n := 0
				if err := rd.ForEach(func(r *logfmt.Record) error { n++; return nil }); err != nil {
					b.Fatal(err)
				}
				if n != len(recs) {
					b.Fatalf("decoded %d of %d records", n, len(recs))
				}
			}
			reportDecode(b, len(stream), len(recs))
		})
	}
}

// BenchmarkDecodeChunkParallel decodes the chunk container through the
// bounded parallel per-chunk pipeline (RunChunks) — the path
// ingest.FileSource takes for .cdnc inputs.
func BenchmarkDecodeChunkParallel(b *testing.B) {
	recs := benchCorpus(b)
	for _, codec := range []logfmt.Codec{logfmt.CodecRaw, logfmt.CodecFlate} {
		stream := encodeChunkedBench(b, recs, codec)
		b.Run("codec="+codec.String(), func(b *testing.B) {
			cfg := PipelineConfig{Workers: runtime.GOMAXPROCS(0)}
			b.ReportAllocs()
			b.SetBytes(int64(len(stream)))
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				n := 0
				_, err := RunChunks(context.Background(), bytes.NewReader(stream), cfg,
					func(r *logfmt.Record) error { n++; return nil })
				if err != nil {
					b.Fatal(err)
				}
				if n != len(recs) {
					b.Fatalf("decoded %d of %d records", n, len(recs))
				}
			}
			reportDecode(b, len(stream), len(recs))
		})
	}
}

// BenchmarkPipelineTSV measures the fan-out decode path end to end —
// the throughput a `jsonrepro -records logs.tsv -only table2,fig3,fig4`
// run is bounded by. The -j flag maps to Workers.
func BenchmarkPipelineTSV(b *testing.B) {
	recs := synthRecords(b, 10_000)
	stream := encodeTSV(recs)
	counts := []int{1}
	if n := runtime.GOMAXPROCS(0); n > 1 {
		counts = append(counts, n)
	}
	for _, workers := range counts {
		name := "workers=1"
		if workers != 1 {
			name = "workers=gomaxprocs"
		}
		b.Run(name, func(b *testing.B) {
			cfg := PipelineConfig{Workers: workers}
			b.ReportAllocs()
			b.SetBytes(int64(len(stream)))
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				n := 0
				_, err := Run(context.Background(), bytes.NewReader(stream), logfmt.FormatTSV, cfg,
					func(r *logfmt.Record) error { n++; return nil })
				if err != nil {
					b.Fatal(err)
				}
				if n != len(recs) {
					b.Fatalf("decoded %d of %d records", n, len(recs))
				}
			}
		})
	}
}
