package logfmt

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"reflect"
	"testing"
	"time"
)

// chunkCorpus builds n distinct but repetitive records, the shape CDN
// logs actually have (few URLs and user agents repeated many times).
func chunkCorpus(n int) []Record {
	base := sampleRecord()
	recs := make([]Record, n)
	for i := range recs {
		r := base
		r.Time = base.Time.Add(time.Duration(i) * 137 * time.Millisecond)
		r.ClientID = uint64(i % 17)
		r.URL = fmt.Sprintf("https://api.news-example.com/v1/stories?page=%d", i%23)
		r.Status = 200 + i%3
		r.Bytes = int64(512 + i%4096)
		r.Cache = CacheStatus(i % 3)
		recs[i] = r
	}
	return recs
}

func encodeChunks(t testing.TB, recs []Record, cfg ChunkConfig) []byte {
	t.Helper()
	var buf bytes.Buffer
	w := NewChunkWriter(&buf, cfg)
	for i := range recs {
		if err := w.Write(&recs[i]); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	if w.Count() != int64(len(recs)) {
		t.Fatalf("Count = %d, want %d", w.Count(), len(recs))
	}
	return buf.Bytes()
}

func readAllChunks(t testing.TB, data []byte) []Record {
	t.Helper()
	rd := NewChunkReader(bytes.NewReader(data))
	var out []Record
	if err := rd.ForEach(func(r *Record) error {
		out = append(out, *r)
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	return out
}

// TestChunkRoundTrip is the round-trip property: write N records, read
// them back identical, across every codec and chunk-size shape
// including one record per chunk and byte-threshold flushing.
func TestChunkRoundTrip(t *testing.T) {
	recs := chunkCorpus(257) // odd count: final chunk is partial
	for _, codec := range []Codec{CodecRaw, CodecFlate, CodecGzip} {
		for _, cfg := range []ChunkConfig{
			{Codec: codec},                      // defaults
			{Codec: codec, ChunkRecords: 1},     // chunk-size-1 edge
			{Codec: codec, ChunkRecords: 64},    // many chunks
			{Codec: codec, MaxChunkBytes: 1024}, // byte-threshold flush
		} {
			name := fmt.Sprintf("%s/recs=%d/bytes=%d", codec, cfg.ChunkRecords, cfg.MaxChunkBytes)
			t.Run(name, func(t *testing.T) {
				data := encodeChunks(t, recs, cfg)
				got := readAllChunks(t, data)
				if len(got) != len(recs) {
					t.Fatalf("read %d records, want %d", len(got), len(recs))
				}
				for i := range recs {
					if !got[i].Time.Equal(recs[i].Time) {
						t.Fatalf("record %d time = %v, want %v", i, got[i].Time, recs[i].Time)
					}
					a, b := got[i], recs[i]
					a.Time, b.Time = time.Time{}, time.Time{}
					if a != b {
						t.Fatalf("record %d diverged:\n got %+v\nwant %+v", i, a, b)
					}
				}
			})
		}
	}
}

// TestChunkEmptyStream covers the empty-file edges: a zero-byte file is
// clean EOF, a header-only file (what Close on an empty writer emits)
// is clean EOF, and a truncated file header is a DecodeError.
func TestChunkEmptyStream(t *testing.T) {
	rd := NewChunkReader(bytes.NewReader(nil))
	var rec Record
	if err := rd.Read(&rec); err != io.EOF {
		t.Fatalf("empty stream: err = %v, want EOF", err)
	}

	var buf bytes.Buffer
	w := NewChunkWriter(&buf, ChunkConfig{Codec: CodecFlate})
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	if buf.Len() != 6 {
		t.Fatalf("empty container is %d bytes, want 6 (header only)", buf.Len())
	}
	if !IsChunkMagic(buf.Bytes()) {
		t.Fatal("empty container does not self-identify")
	}
	rd = NewChunkReader(bytes.NewReader(buf.Bytes()))
	if err := rd.Read(&rec); err != io.EOF {
		t.Fatalf("header-only stream: err = %v, want EOF", err)
	}

	rd = NewChunkReader(bytes.NewReader(buf.Bytes()[:3]))
	err := rd.Read(&rec)
	if AsDecodeError(err) == nil {
		t.Fatalf("truncated header: err = %v, want DecodeError", err)
	}
}

// TestChunkPayloadCorruption flips bytes inside one chunk's payload and
// asserts exactly that chunk's records are lost (chunk-granularity
// quarantine) while every other chunk still decodes, with no resync
// bytes needed because the framing survived.
func TestChunkPayloadCorruption(t *testing.T) {
	recs := chunkCorpus(300)
	data := encodeChunks(t, recs, ChunkConfig{Codec: CodecFlate, ChunkRecords: 50})

	// Find the second chunk's frame and flip a byte mid-payload.
	sc := NewChunkScanner(bytes.NewReader(data))
	var rc RawChunk
	for i := 0; i < 2; i++ {
		if err := sc.Next(&rc); err != nil {
			t.Fatal(err)
		}
	}
	corrupted := append([]byte(nil), data...)
	corrupted[rc.Offset+chunkHeaderLen+int64(len(rc.Payload))/2] ^= 0x40

	rd := NewChunkReader(bytes.NewReader(corrupted))
	var good, badSpans int
	var rec Record
	for {
		err := rd.Read(&rec)
		if err == io.EOF {
			break
		}
		if de := AsDecodeError(err); de != nil {
			badSpans++
			if de.Format != "chunk" {
				t.Fatalf("DecodeError format = %q, want chunk", de.Format)
			}
			if de.Record != 50 {
				t.Fatalf("bad span starts at record %d, want 50", de.Record)
			}
			if rd.LastBadRecords() != 50 {
				t.Fatalf("LastBadRecords = %d, want 50", rd.LastBadRecords())
			}
			// Framing survived, so resync must be a no-op.
			skipped, rerr := rd.Resync(0)
			if rerr != nil || skipped != 0 {
				t.Fatalf("Resync = (%d, %v), want (0, nil)", skipped, rerr)
			}
			continue
		}
		if err != nil {
			t.Fatal(err)
		}
		good++
	}
	if badSpans != 1 || good != 250 {
		t.Fatalf("good=%d badSpans=%d, want 250 good and exactly 1 bad chunk", good, badSpans)
	}
}

// TestChunkHeaderCorruptionResync destroys a chunk header (framing
// lost) and asserts Resync lands exactly on the next chunk's marker.
func TestChunkHeaderCorruptionResync(t *testing.T) {
	recs := chunkCorpus(300)
	data := encodeChunks(t, recs, ChunkConfig{Codec: CodecFlate, ChunkRecords: 50})

	sc := NewChunkScanner(bytes.NewReader(data))
	var rc RawChunk
	offsets := []int64{}
	for {
		err := sc.Next(&rc)
		if err == io.EOF {
			break
		}
		if err != nil {
			t.Fatal(err)
		}
		offsets = append(offsets, rc.Offset)
	}
	corrupted := append([]byte(nil), data...)
	corrupted[offsets[2]] ^= 0xFF // kill chunk 2's marker

	rd := NewChunkReader(bytes.NewReader(corrupted))
	var good int
	var rec Record
	sawBad := false
	for {
		err := rd.Read(&rec)
		if err == io.EOF {
			break
		}
		if AsDecodeError(err) != nil {
			sawBad = true
			if _, rerr := rd.Resync(0); rerr != nil {
				t.Fatalf("Resync: %v", rerr)
			}
			continue
		}
		if err != nil {
			t.Fatal(err)
		}
		good++
	}
	if !sawBad {
		t.Fatal("corrupted header not reported")
	}
	// Chunk 2 (50 records) is lost; chunks 0,1,3,4,5 survive.
	if good != 250 {
		t.Fatalf("good = %d, want 250", good)
	}
}

// TestChunkScannerTruncatedPayload cuts the stream mid-payload.
func TestChunkScannerTruncatedPayload(t *testing.T) {
	recs := chunkCorpus(100)
	data := encodeChunks(t, recs, ChunkConfig{Codec: CodecFlate, ChunkRecords: 100})
	sc := NewChunkScanner(bytes.NewReader(data[:len(data)-7]))
	var rc RawChunk
	err := sc.Next(&rc)
	de := AsDecodeError(err)
	if de == nil {
		t.Fatalf("err = %v, want DecodeError", err)
	}
}

// TestChunkDecoderRejectsLies covers headers that parse but lie about
// their contents: wrong record count and wrong raw length.
func TestChunkDecoderRejectsLies(t *testing.T) {
	recs := chunkCorpus(10)
	data := encodeChunks(t, recs, ChunkConfig{Codec: CodecRaw, ChunkRecords: 10})

	rewrite := func(mut func(hdr []byte)) []byte {
		out := append([]byte(nil), data...)
		hdr := out[6 : 6+chunkHeaderLen]
		mut(hdr)
		binary.LittleEndian.PutUint32(hdr[20:], crc32.Checksum(hdr[:20], castagnoli))
		return out
	}

	lieRecords := rewrite(func(hdr []byte) { binary.LittleEndian.PutUint32(hdr[4:], 9) })
	rd := NewChunkReader(bytes.NewReader(lieRecords))
	var rec Record
	var err error
	for err == nil {
		err = rd.Read(&rec)
	}
	if AsDecodeError(err) == nil {
		t.Fatalf("lying record count: err = %v, want DecodeError", err)
	}

	lieRaw := rewrite(func(hdr []byte) {
		binary.LittleEndian.PutUint32(hdr[8:], binary.LittleEndian.Uint32(hdr[8:])-1)
	})
	rd = NewChunkReader(bytes.NewReader(lieRaw))
	err = nil
	for err == nil {
		err = rd.Read(&rec)
	}
	if AsDecodeError(err) == nil {
		t.Fatalf("lying raw length: err = %v, want DecodeError", err)
	}
}

// TestChunkDecodedStringsOutliveNextChunk checks that a decoder's
// strings alias none of its buffers. A raw chunk decodes straight out
// of the scanner's payload buffer, which the next chunk overwrites in
// place; strings decoded from chunk 1 must read the same after the
// same decoder has decoded chunk 2 from that buffer.
func TestChunkDecodedStringsOutliveNextChunk(t *testing.T) {
	recs := chunkCorpus(4)
	for i := range recs {
		// Same lengths, different bytes: chunk 2's dictionaries land
		// where chunk 1's were.
		recs[i].URL = fmt.Sprintf("https://api.news-example.com/v1/chunk%d", i/2)
		recs[i].UserAgent = fmt.Sprintf("Agent%d/1.0", i/2)
		recs[i].Method = fmt.Sprintf("VERB%d", i/2) // a literal, not a table index
	}
	data := encodeChunks(t, recs, ChunkConfig{Codec: CodecRaw, ChunkRecords: 2})
	sc := NewChunkScanner(bytes.NewReader(data))
	var rc RawChunk
	if err := sc.Next(&rc); err != nil {
		t.Fatal(err)
	}
	dec := NewChunkDecoder(sc.Codec())
	first, err := dec.Decode(&rc, nil)
	if err != nil {
		t.Fatal(err)
	}
	payload := rc.Payload
	if err := sc.Next(&rc); err != nil {
		t.Fatal(err)
	}
	if &rc.Payload[0] != &payload[0] {
		t.Fatal("the scanner did not reuse its payload buffer; the test would not bite")
	}
	second, err := dec.Decode(&rc, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(first, recs[:2]) || !reflect.DeepEqual(second, recs[2:]) {
		t.Fatalf("decoded\n%+v\n%+v\nwant\n%+v", first, second, recs)
	}
}

// TestCreateFileChunkExtension checks the .cdnc extension creates a
// chunk container shaped by the ChunkConfig CreateFile was given.
func TestCreateFileChunkExtension(t *testing.T) {
	path := t.TempDir() + "/logs.cdnc"
	w, err := CreateFile(path, ChunkConfig{Codec: CodecFlate, ChunkRecords: 4})
	if err != nil {
		t.Fatal(err)
	}
	recs := chunkCorpus(10)
	for i := range recs {
		if err := w.Write(&recs[i]); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	sc := NewChunkScanner(bytes.NewReader(data))
	var rc RawChunk
	chunks := 0
	for ; sc.Next(&rc) == nil; chunks++ {
	}
	if sc.Codec() != CodecFlate || chunks != 3 {
		t.Fatalf("codec %s with %d chunks, want flate with 3 (10 records by 4)", sc.Codec(), chunks)
	}
	if n := len(readAllChunks(t, data)); n != 10 {
		t.Fatalf("decoded %d records, want 10", n)
	}
}

// TestParseCodec round-trips codec names.
func TestParseCodec(t *testing.T) {
	for _, c := range []Codec{CodecRaw, CodecFlate, CodecGzip} {
		got, err := ParseCodec(c.String())
		if err != nil || got != c {
			t.Fatalf("ParseCodec(%q) = %v, %v", c.String(), got, err)
		}
	}
	if _, err := ParseCodec("zstd"); err == nil {
		t.Fatal("ParseCodec accepted unknown codec")
	}
}
