package logfmt

import (
	"bytes"
	"os"
	"path/filepath"
	"testing"
	"time"
)

// readFile decodes the log at path the way ingest.FileSource routes it:
// the chunk container by magic, the text formats by extension.
func readFile(t *testing.T, path string) []Record {
	t.Helper()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var rd RecordReader = NewChunkReader(bytes.NewReader(data))
	if !IsChunkMagic(data) {
		if rd, err = NewReader(bytes.NewReader(data), FormatForPath(path)); err != nil {
			t.Fatal(err)
		}
	}
	var out []Record
	if err := rd.ForEach(func(r *Record) error { out = append(out, *r); return nil }); err != nil {
		t.Fatalf("%s: read: %v", path, err)
	}
	return out
}

func TestCreateOpenFileRoundTrips(t *testing.T) {
	dir := t.TempDir()
	base := time.Date(2019, 5, 1, 0, 0, 0, 0, time.UTC)
	for _, name := range []string{
		"logs.tsv", "logs.tsv.gz", "logs.jsonl", "logs.jsonl.gz", "logs.cdnc", "logs.log",
	} {
		path := filepath.Join(dir, name)
		w, err := CreateFile(path, ChunkConfig{ChunkRecords: 16})
		if err != nil {
			t.Fatalf("%s: create: %v", name, err)
		}
		const n = 50
		for i := 0; i < n; i++ {
			r := sampleRecord()
			r.Time = base.Add(time.Duration(i) * time.Second)
			r.Bytes = int64(i)
			if err := w.Write(&r); err != nil {
				t.Fatalf("%s: write: %v", name, err)
			}
		}
		if w.Count() != n {
			t.Errorf("%s: count = %d", name, w.Count())
		}
		if err := w.Close(); err != nil {
			t.Fatalf("%s: close: %v", name, err)
		}

		recs := readFile(t, path)
		if len(recs) != n {
			t.Errorf("%s: read %d records", name, len(recs))
		}
		for i := range recs {
			if recs[i].Bytes != int64(i) {
				t.Fatalf("%s: record %d has Bytes %d", name, i, recs[i].Bytes)
			}
			if err := recs[i].Validate(); err != nil {
				t.Fatalf("%s: record %d: %v", name, i, err)
			}
		}
	}
}

func TestCreateFileBadDir(t *testing.T) {
	if _, err := CreateFile("/nonexistent-dir/x.tsv", ChunkConfig{}); err == nil {
		t.Error("bad directory accepted")
	}
}
