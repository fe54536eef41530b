package logfmt

import (
	"bytes"
	"strings"
	"testing"
)

func BenchmarkAppendTSV(b *testing.B) {
	r := sampleRecord()
	var buf []byte
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		buf = AppendTSV(buf[:0], &r)
	}
}

func BenchmarkParseTSV(b *testing.B) {
	r := sampleRecord()
	line := strings.TrimSuffix(string(AppendTSV(nil, &r)), "\n")
	var out Record
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if err := ParseTSV(line, &out); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkMarshalJSONLine(b *testing.B) {
	r := sampleRecord()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := MarshalJSONLine(&r); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkWriterThroughput(b *testing.B) {
	r := sampleRecord()
	var buf bytes.Buffer
	w := NewWriter(&buf, FormatTSV)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := w.Write(&r); err != nil {
			b.Fatal(err)
		}
		if buf.Len() > 1<<24 {
			buf.Reset()
		}
	}
}

// BenchmarkChunkWrite measures the encode side of the chunk container
// per codec: dictionary building, body encoding, and compression.
func BenchmarkChunkWrite(b *testing.B) {
	recs := chunkCorpus(10_000)
	for _, codec := range []Codec{CodecRaw, CodecFlate, CodecGzip} {
		b.Run("codec="+codec.String(), func(b *testing.B) {
			var buf bytes.Buffer
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				buf.Reset()
				w := NewChunkWriter(&buf, ChunkConfig{Codec: codec})
				for j := range recs {
					if err := w.Write(&recs[j]); err != nil {
						b.Fatal(err)
					}
				}
				if err := w.Close(); err != nil {
					b.Fatal(err)
				}
			}
			b.SetBytes(int64(buf.Len()))
			b.ReportMetric(float64(len(recs)*b.N)/b.Elapsed().Seconds(), "records/s")
			b.ReportMetric(float64(buf.Len())/float64(len(recs)), "disk-B/rec")
		})
	}
}

// BenchmarkCanonicalURL is the case that needs net/url: upper-case
// scheme and host, a default port, unsorted query keys.
func BenchmarkCanonicalURL(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		CanonicalURL("HTTPS://Example.COM:443/v1/articles?b=2&a=1")
	}
}

// BenchmarkCanonicalURLPlain is the case the scan answers alone.
func BenchmarkCanonicalURLPlain(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		CanonicalURL(plainURL)
	}
}
