package ingest

import (
	"bytes"
	"errors"
	"testing"

	"repro/internal/logfmt"
)

// FuzzTolerantReader checks that tolerant decoding of arbitrary bytes —
// as both text formats and as a chunk container — never panics, never
// loops, and keeps its accounting consistent with what it delivers; and
// that the pipelines (Run, RunChunks), inline and fanned out, end the
// same way with the same Stats as the sequential read of the same
// bytes.
func FuzzTolerantReader(f *testing.F) {
	recs := make([]logfmt.Record, 3)
	base := logfmt.Record{Method: "GET", URL: "https://api.example.com/v1",
		MIMEType: "application/json", Status: 200, Bytes: 512, Cache: logfmt.CacheHit}
	for i := range recs {
		recs[i] = base
		recs[i].ClientID = uint64(i)
	}
	var jsonl bytes.Buffer
	w := logfmt.NewWriter(&jsonl, logfmt.FormatJSONL)
	for i := range recs {
		w.Write(&recs[i])
	}
	w.Close()
	f.Add(jsonl.Bytes())
	f.Add(encodeTSV(recs))
	f.Add(encodeChunked(f, recs, logfmt.ChunkConfig{Codec: logfmt.CodecFlate, ChunkRecords: 2}))
	f.Add([]byte("CDNC1\x00")) // an empty container
	f.Add([]byte{})
	f.Add(bytes.Repeat([]byte{0x81}, 64))

	f.Fuzz(func(t *testing.T, data []byte) {
		opts := Options{MaxErrorRate: 0.9, MinRecords: 8}
		for _, ext := range []string{"tsv", "jsonl", "cdnc"} {
			var ref Stats
			var refErr error
			for i, ep := range entryPoints(ext, 1, 2) {
				var delivered int64
				st, err := ep.read(data, opts, func(*logfmt.Record) error { delivered++; return nil })
				if st.Records != delivered {
					t.Fatalf("%s %s: stats.Records = %d, delivered %d", ext, ep.name, st.Records, delivered)
				}
				if i == 0 {
					ref, refErr = st, err
					// The text readers sniff gzip, and a member
					// that fails to inflate is an I/O error, not corruption
					// to quarantine.
					gzip := ext != "cdnc" && len(data) >= 2 && data[0] == 0x1f && data[1] == 0x8b
					if err != nil && !errors.Is(err, ErrBudgetExceeded) && !gzip {
						t.Fatalf("%s %s: tolerant read ended with unexpected error: %v", ext, ep.name, err)
					}
					continue
				}
				if !sameEnding(err, refErr) || st != ref {
					t.Fatalf("%s %s: ended %v with %+v; sequential read ended %v with %+v",
						ext, ep.name, err, st, refErr, ref)
				}
			}
		}
	})
}

// sameEnding reports whether two reads ended the same way: both clean,
// both on the error budget, or both on some other (I/O) error.
func sameEnding(a, b error) bool {
	if a == nil || b == nil {
		return a == nil && b == nil
	}
	return errors.Is(a, ErrBudgetExceeded) == errors.Is(b, ErrBudgetExceeded)
}
