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

// BenchmarkChunkDecode times ChunkDecoder.Decode alone — inflate,
// checksum, dictionaries and record bodies — over pre-scanned chunks
// of a repetitive corpus, per codec; one op decodes every chunk once.
func BenchmarkChunkDecode(b *testing.B) {
	recs := chunkCorpus(10_000)
	for _, codec := range []Codec{CodecRaw, CodecFlate} {
		b.Run("codec="+codec.String(), func(b *testing.B) {
			data := encodeChunks(b, recs, ChunkConfig{Codec: codec})
			sc := NewChunkScanner(bytes.NewReader(data))
			var chunks []RawChunk
			for {
				var rc RawChunk
				if err := sc.Next(&rc); err != nil {
					break
				}
				rc.Payload = bytes.Clone(rc.Payload)
				chunks = append(chunks, rc)
			}
			dec := NewChunkDecoder(codec)
			var batch []Record
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				for j := range chunks {
					var err error
					if batch, err = dec.Decode(&chunks[j], batch[:0]); err != nil {
						b.Fatal(err)
					}
				}
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(len(recs)*b.N), "ns/record")
		})
	}
}

// BenchmarkRecordHost times Host on a lower-case URL with userinfo,
// port and query — the case that must not allocate — and on one with an
// upper-case host, which must fold.
func BenchmarkRecordHost(b *testing.B) {
	for _, u := range []string{
		"https://api.news-example.com/v1/stories?page=7",
		"https://API.News-Example.com:443/v1/stories?page=7",
	} {
		r := Record{URL: u}
		b.Run(r.Host(), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				_ = r.Host()
			}
		})
	}
}

// BenchmarkDatasetSummaryObserve times the Table 2 fold over a
// repetitive corpus, a fresh summary a pass.
func BenchmarkDatasetSummaryObserve(b *testing.B) {
	recs := chunkCorpus(10_000)
	b.ReportAllocs()
	b.ResetTimer()
	var sum *DatasetSummary
	for i := 0; i < b.N; i++ {
		if i%len(recs) == 0 {
			sum = NewDatasetSummary("bench")
		}
		sum.Observe(&recs[i%len(recs)])
	}
}
