package logfmt

import (
	"bytes"
	"strings"
	"testing"
)

// FuzzParseTSV checks that arbitrary input never panics the TSV parser
// and that accepted lines re-encode to an equivalent record.
func FuzzParseTSV(f *testing.F) {
	r := sampleRecord()
	f.Add(strings.TrimSuffix(string(AppendTSV(nil, &r)), "\n"))
	f.Add("")
	f.Add("a\tb\tc")
	f.Add("2019-05-01T12:00:00Z\tdead\tGET\thttp://x/\thit\t200\t5\tapplication/json\tua")
	f.Fuzz(func(t *testing.T, line string) {
		var rec Record
		if err := ParseTSV(line, &rec); err != nil {
			return // rejected input is fine
		}
		// Accepted input must round-trip stably.
		re := strings.TrimSuffix(string(AppendTSV(nil, &rec)), "\n")
		var rec2 Record
		if err := ParseTSV(re, &rec2); err != nil {
			t.Fatalf("re-encoded line rejected: %v\nline: %q", err, re)
		}
		if rec2 != rec {
			t.Fatalf("round trip diverged:\n%+v\n%+v", rec, rec2)
		}
	})
}

// FuzzChunkReader checks the chunk-container decoder never panics on
// corrupt containers, and that the tolerant read-resync loop always
// terminates.
func FuzzChunkReader(f *testing.F) {
	r := sampleRecord()
	for _, codec := range []Codec{CodecRaw, CodecFlate, CodecGzip} {
		var buf bytes.Buffer
		w := NewChunkWriter(&buf, ChunkConfig{Codec: codec, ChunkRecords: 2})
		for i := 0; i < 5; i++ {
			w.Write(&r)
		}
		w.Close()
		f.Add(buf.Bytes())
	}
	f.Add([]byte("CDNC1"))
	f.Add([]byte("CDNC1\x00"))
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, data []byte) {
		rd := NewChunkReader(bytes.NewReader(data))
		var rec Record
		for i := 0; i < 1000; i++ {
			err := rd.Read(&rec)
			if err == nil {
				continue
			}
			if AsDecodeError(err) == nil {
				return // EOF or I/O error ends the stream
			}
			if _, rerr := rd.Resync(1 << 16); rerr != nil {
				return
			}
		}
	})
}

// FuzzUnmarshalJSONLine checks the JSONL decoder never panics.
func FuzzUnmarshalJSONLine(f *testing.F) {
	r := sampleRecord()
	line, _ := MarshalJSONLine(&r)
	f.Add(string(line))
	f.Add("{}")
	f.Add("{bad")
	f.Fuzz(func(t *testing.T, data string) {
		var rec Record
		_ = UnmarshalJSONLine([]byte(data), &rec)
	})
}
