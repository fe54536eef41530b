package logfmt

import (
	"bytes"
	"encoding/binary"
	"errors"
	"os"
	"path/filepath"
	"testing"
	"testing/quick"
	"time"
)

// decodeBinaryStream decodes BinaryWriter output with the chunk
// container's field decoder. Nothing else reads the stream any more;
// this lets the writer's tests check it still encodes every field of
// every record, so the benchmark's size yardstick measures a faithful
// encoding.
func decodeBinaryStream(t testing.TB, data []byte) []Record {
	t.Helper()
	if len(data) == 0 {
		return nil
	}
	if !bytes.HasPrefix(data, binaryMagic[:]) {
		t.Fatalf("stream starts %q, want the binary magic", data[:min(len(data), 5)])
	}
	data = data[len(binaryMagic):]
	var prev int64
	var out []Record
	for len(data) > 0 {
		size, n := binary.Uvarint(data)
		if n <= 0 || uint64(len(data)-n) < size {
			t.Fatalf("record %d: bad length prefix", len(out))
		}
		d := decoder{buf: data[n : n+int(size)]}
		data = data[n+int(size):]
		prev += d.varint()
		r := Record{Time: time.Unix(0, prev).UTC(), ClientID: d.uvarint()}
		r.Method = d.dictString(methodTable)
		r.URL = d.str()
		r.UserAgent = d.str()
		r.MIMEType = d.dictString(mimeTable)
		r.Status = int(d.uvarint())
		r.Bytes = int64(d.uvarint())
		r.Cache = CacheStatus(d.byte())
		if d.err != nil || len(d.buf) != 0 {
			t.Fatalf("record %d: %v with %d bytes left", len(out), d.err, len(d.buf))
		}
		out = append(out, r)
	}
	return out
}

// writeBinary encodes recs with a BinaryWriter.
func writeBinary(t testing.TB, recs []Record) []byte {
	t.Helper()
	var buf bytes.Buffer
	w := NewBinaryWriter(&buf)
	for i := range recs {
		if err := w.Write(&recs[i]); err != nil {
			t.Fatal(err)
		}
	}
	if w.Count() != int64(len(recs)) {
		t.Errorf("count = %d, want %d", w.Count(), len(recs))
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

func TestBinaryRoundTrip(t *testing.T) {
	var want []Record
	base := time.Date(2019, 5, 1, 0, 0, 0, 0, time.UTC)
	for i := 0; i < 200; i++ {
		r := sampleRecord()
		r.Time = base.Add(time.Duration(i) * 137 * time.Millisecond)
		r.Bytes = int64(i * 7)
		if i%3 == 0 {
			r.Method = "POST"
		}
		if i%5 == 0 {
			r.MIMEType = "text/html"
		}
		if i%7 == 0 {
			r.UserAgent = ""
		}
		want = append(want, r)
	}
	got := decodeBinaryStream(t, writeBinary(t, want))
	if len(got) != len(want) {
		t.Fatalf("decoded %d records, want %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("record %d:\n got %+v\nwant %+v", i, got[i], want[i])
		}
	}
}

// TestBinaryOutOfOrderTimes checks the delta encoding handles negative
// deltas (slightly out-of-order streams).
func TestBinaryOutOfOrderTimes(t *testing.T) {
	base := time.Date(2019, 5, 1, 0, 0, 0, 0, time.UTC)
	times := []time.Time{base.Add(time.Second), base, base.Add(3 * time.Second)}
	recs := make([]Record, len(times))
	for i, at := range times {
		recs[i] = sampleRecord()
		recs[i].Time = at
	}
	for i, r := range decodeBinaryStream(t, writeBinary(t, recs)) {
		if !r.Time.Equal(times[i]) {
			t.Errorf("record %d time %v != %v", i, r.Time, times[i])
		}
	}
}

func TestBinaryPropertyRoundTrip(t *testing.T) {
	err := quick.Check(func(id uint64, status uint16, size uint32, url, ua string) bool {
		r := Record{
			Time:      time.Date(2019, 5, 1, 0, 0, 0, int(id%1e9), time.UTC),
			ClientID:  id,
			Method:    "WEIRD-METHOD",
			URL:       url,
			UserAgent: ua,
			MIMEType:  "application/x-custom",
			Status:    int(status),
			Bytes:     int64(size),
			Cache:     CacheStatus(id % 3),
		}
		got := decodeBinaryStream(t, writeBinary(t, []Record{r}))
		return len(got) == 1 && got[0] == r
	}, nil)
	if err != nil {
		t.Error(err)
	}
}

func TestBinarySmallerThanTSV(t *testing.T) {
	var tsv, bin bytes.Buffer
	tw := NewWriter(&tsv, FormatTSV)
	bw := NewBinaryWriter(&bin)
	base := time.Date(2019, 5, 1, 0, 0, 0, 0, time.UTC)
	for i := 0; i < 1000; i++ {
		r := sampleRecord()
		r.Time = base.Add(time.Duration(i) * 40 * time.Millisecond)
		tw.Write(&r)
		bw.Write(&r)
	}
	tw.Close()
	bw.Close()
	if bin.Len() >= tsv.Len()*2/3 {
		t.Errorf("binary %d bytes not clearly below TSV %d", bin.Len(), tsv.Len())
	}
}

// TestCheckRetired checks the retired binary stream is recognised by
// name and by magic, and that CreateFile refuses the name before it
// creates anything.
func TestCheckRetired(t *testing.T) {
	var stream bytes.Buffer
	w := NewBinaryWriter(&stream)
	r := sampleRecord()
	w.Write(&r)
	w.Close()
	cases := []struct {
		path    string
		head    []byte
		retired bool
	}{
		{"a.cdnb", nil, true},
		{"a.cdnb.gz", nil, true},
		{"a.tsv", stream.Bytes(), true},
		{"a.tsv", nil, false},
		{"a.tsv.gz", []byte("CDNC1\x00"), false},
		{"cdnb.tsv", []byte("CDNJ"), false},
	}
	for _, c := range cases {
		err := CheckRetired(c.path, c.head)
		if got := errors.Is(err, ErrBinaryStream); got != c.retired {
			t.Errorf("CheckRetired(%q, %q) = %v, want retired %v", c.path, c.head, err, c.retired)
		}
	}

	path := filepath.Join(t.TempDir(), "logs.cdnb")
	if _, err := CreateFile(path, ChunkConfig{}); !errors.Is(err, ErrBinaryStream) {
		t.Errorf("CreateFile(%q) = %v, want ErrBinaryStream", path, err)
	}
	if _, err := os.Stat(path); !errors.Is(err, os.ErrNotExist) {
		t.Errorf("CreateFile left %s behind: %v", path, err)
	}
}

func BenchmarkBinaryWrite(b *testing.B) {
	r := sampleRecord()
	var buf bytes.Buffer
	w := NewBinaryWriter(&buf)
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
