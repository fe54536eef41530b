package logfmt

import (
	"bufio"
	"bytes"
	"compress/flate"
	"compress/gzip"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"io"
	"time"
)

// The chunk container is the one binary on-disk format: records are
// grouped into self-contained chunks that are individually
// compressed and checksummed. Each chunk resets the timestamp delta
// chain and carries its own record count, uncompressed size, and
// CRC32C, so chunks decode independently — which is what lets ingest
// decompress and decode many chunks in parallel — and corruption is
// contained and skipped at chunk granularity.
//
// Layout (all fixed-width integers little-endian):
//
//	file header:  "CDNC1" | codec byte
//	chunk frame:  marker[4] | records u32 | rawLen u32 | payloadLen u32
//	              | payloadCRC u32 | headerCRC u32 | payload[payloadLen]
//
// payloadCRC is the CRC32C of the *uncompressed* payload (so a verified
// decode proves the records, not just the stored bytes); headerCRC is
// the CRC32C of the 20 header bytes before it (so framing survives
// payload corruption and a resync scan can validate a candidate marker
// without decompressing anything).
//
// The uncompressed payload is dictionary-encoded:
//
//	payload:      urlDict | uaDict | records × body
//	dict:         count uvarint | count × (len uvarint | bytes)
//	body:         deltaNano varint | clientID uvarint | method dictByte
//	              | urlIdx uvarint | uaIdx uvarint | mime dictByte
//	              | status uvarint | bytes uvarint | cache byte
//
// Each chunk stores its distinct URL and user-agent strings once, in
// first-use order, and record bodies reference them by index — CDN logs
// repeat a small set of URLs and user agents many times, so this both
// shrinks the payload and lets the decoder intern each distinct string
// once per chunk instead of hashing per record. Methods and MIME types
// use a fixed dictionary byte (methodTable, mimeTable; 0 = literal
// string follows inline). The delta-timestamp base resets to zero per chunk,
// so chunks decode independently.

// chunkFileMagic identifies a chunk container (format version 1). It is
// distinct from the retired binary stream's "CDNJ1" (binaryMagic).
var chunkFileMagic = [5]byte{'C', 'D', 'N', 'C', '1'}

// chunkMarker precedes every chunk header. 0xF5 is not valid UTF-8, so
// the marker cannot appear inside the text formats by accident.
var chunkMarker = [4]byte{0xF5, 'C', 'H', 'K'}

const (
	// chunkHeaderLen is the fixed frame header size: marker + 5 u32.
	chunkHeaderLen = 24
	// maxChunkRecords bounds one chunk's claimed record count; larger
	// counts are rejected as corrupt.
	maxChunkRecords = 1 << 22
	// maxChunkPayload bounds one chunk's raw and stored payload sizes.
	maxChunkPayload = 1 << 26
)

// castagnoli is the CRC32C polynomial table shared by writer and reader.
var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// Codec selects the per-chunk compression of the chunk container.
type Codec uint8

const (
	// CodecRaw stores chunks uncompressed. It is the zero value, so it
	// is what a zero ChunkConfig — and with it CreateFile and
	// jsonconvert — writes.
	CodecRaw Codec = iota
	// CodecFlate compresses each chunk with DEFLATE (the cheapest stdlib
	// codec without per-chunk header overhead; jsongen's -codec default).
	CodecFlate
	// CodecGzip compresses each chunk with gzip (DEFLATE plus a
	// per-chunk gzip envelope; interoperable with external tooling).
	CodecGzip

	codecCount
)

var codecNames = [...]string{"raw", "flate", "gzip"}

// String returns the wire name of the codec.
func (c Codec) String() string {
	if int(c) < len(codecNames) {
		return codecNames[c]
	}
	return fmt.Sprintf("Codec(%d)", uint8(c))
}

// ParseCodec parses the wire name of a chunk codec.
func ParseCodec(s string) (Codec, error) {
	for i, n := range codecNames {
		if s == n {
			return Codec(i), nil
		}
	}
	return 0, fmt.Errorf("logfmt: unknown chunk codec %q (want raw, flate, or gzip)", s)
}

// ChunkConfig sizes a ChunkWriter.
type ChunkConfig struct {
	// Codec is the per-chunk compression (default CodecRaw, the zero
	// value: dictionary-encoded but uncompressed chunks).
	Codec Codec
	// ChunkRecords is the record count that flushes a chunk (default
	// 4096). 1 degenerates to one record per chunk, which round-trips
	// but wastes header and codec overhead.
	ChunkRecords int
	// MaxChunkBytes flushes a chunk early once its uncompressed payload
	// reaches this size (default 1 MiB), bounding decoder memory even
	// for pathological record sizes.
	MaxChunkBytes int
}

func (c *ChunkConfig) sanitize() {
	if c.ChunkRecords <= 0 {
		c.ChunkRecords = 4096
	}
	if c.ChunkRecords > maxChunkRecords {
		c.ChunkRecords = maxChunkRecords
	}
	if c.MaxChunkBytes <= 0 {
		c.MaxChunkBytes = 1 << 20
	}
	if c.MaxChunkBytes > maxChunkPayload {
		c.MaxChunkBytes = maxChunkPayload
	}
}

// ChunkWriter streams records into the chunk container. Close flushes
// the partial final chunk. ChunkWriter is not safe for concurrent use.
type ChunkWriter struct {
	bw      *bufio.Writer
	cfg     ChunkConfig
	payload []byte // encoded record bodies of the open chunk
	dict    []byte // encoded dictionary sections, built at flush
	recs    int
	n       int64
	prev    int64 // delta base; reset to 0 at each chunk boundary
	urls    dictBuilder
	uas     dictBuilder
	fw      *flate.Writer
	gw      *gzip.Writer
	cbuf    bytes.Buffer
	started bool
}

// dictBuilder assigns dense first-use indices to a chunk's distinct
// strings.
type dictBuilder struct {
	idx  map[string]uint64
	list []string
}

func (d *dictBuilder) ref(s string) uint64 {
	if i, ok := d.idx[s]; ok {
		return i
	}
	i := uint64(len(d.list))
	d.idx[s] = i
	d.list = append(d.list, s)
	return i
}

func (d *dictBuilder) reset() {
	clear(d.idx)
	d.list = d.list[:0]
}

// NewChunkWriter returns a writer emitting the chunk container to w.
func NewChunkWriter(w io.Writer, cfg ChunkConfig) *ChunkWriter {
	cfg.sanitize()
	return &ChunkWriter{
		bw:   bufio.NewWriterSize(w, 1<<16),
		cfg:  cfg,
		urls: dictBuilder{idx: make(map[string]uint64)},
		uas:  dictBuilder{idx: make(map[string]uint64)},
	}
}

// Write encodes one record into the open chunk, flushing the chunk when
// it reaches the configured record count or byte size.
func (w *ChunkWriter) Write(r *Record) error {
	if !w.started {
		if err := w.writeFileHeader(); err != nil {
			return err
		}
	}
	buf := w.payload
	nano := r.Time.UnixNano()
	buf = binary.AppendVarint(buf, nano-w.prev)
	w.prev = nano
	buf = binary.AppendUvarint(buf, r.ClientID)
	buf = appendDictString(buf, methodTable, r.Method)
	buf = binary.AppendUvarint(buf, w.urls.ref(r.URL))
	buf = binary.AppendUvarint(buf, w.uas.ref(r.UserAgent))
	buf = appendDictString(buf, mimeTable, r.MIMEType)
	buf = binary.AppendUvarint(buf, uint64(r.Status))
	buf = binary.AppendUvarint(buf, uint64(r.Bytes))
	buf = append(buf, byte(r.Cache))
	w.payload = buf
	w.recs++
	w.n++
	if w.recs >= w.cfg.ChunkRecords || len(w.payload) >= w.cfg.MaxChunkBytes {
		return w.flushChunk()
	}
	return nil
}

func (w *ChunkWriter) writeFileHeader() error {
	if _, err := w.bw.Write(chunkFileMagic[:]); err != nil {
		return err
	}
	if err := w.bw.WriteByte(byte(w.cfg.Codec)); err != nil {
		return err
	}
	w.started = true
	return nil
}

// flushChunk builds the dictionary sections, compresses, and frames the
// open chunk.
func (w *ChunkWriter) flushChunk() error {
	if w.recs == 0 {
		return nil
	}
	w.dict = appendStringDict(w.dict[:0], w.urls.list)
	w.dict = appendStringDict(w.dict, w.uas.list)
	rawLen := len(w.dict) + len(w.payload)
	crc := crc32.Update(crc32.Checksum(w.dict, castagnoli), castagnoli, w.payload)
	stored, err := w.compress(w.dict, w.payload)
	if err != nil {
		return err
	}
	storedLen := rawLen
	if stored != nil {
		storedLen = len(stored)
	}
	var hdr [chunkHeaderLen]byte
	copy(hdr[:4], chunkMarker[:])
	binary.LittleEndian.PutUint32(hdr[4:], uint32(w.recs))
	binary.LittleEndian.PutUint32(hdr[8:], uint32(rawLen))
	binary.LittleEndian.PutUint32(hdr[12:], uint32(storedLen))
	binary.LittleEndian.PutUint32(hdr[16:], crc)
	binary.LittleEndian.PutUint32(hdr[20:], crc32.Checksum(hdr[:20], castagnoli))
	if _, err := w.bw.Write(hdr[:]); err != nil {
		return err
	}
	if stored != nil {
		_, err = w.bw.Write(stored)
	} else if _, err = w.bw.Write(w.dict); err == nil {
		_, err = w.bw.Write(w.payload)
	}
	if err != nil {
		return err
	}
	w.payload = w.payload[:0]
	w.recs = 0
	w.prev = 0
	w.urls.reset()
	w.uas.reset()
	return nil
}

// compress encodes the dict and records sections through the configured
// codec, reusing the compressor and scratch buffer across chunks. For
// CodecRaw it returns nil: the caller writes the sections directly.
func (w *ChunkWriter) compress(dict, records []byte) ([]byte, error) {
	var cw io.Writer
	var finish func() error
	switch w.cfg.Codec {
	case CodecRaw:
		return nil, nil
	case CodecFlate:
		w.cbuf.Reset()
		if w.fw == nil {
			fw, err := flate.NewWriter(&w.cbuf, flate.DefaultCompression)
			if err != nil {
				return nil, err
			}
			w.fw = fw
		} else {
			w.fw.Reset(&w.cbuf)
		}
		cw, finish = w.fw, w.fw.Close
	case CodecGzip:
		w.cbuf.Reset()
		if w.gw == nil {
			w.gw = gzip.NewWriter(&w.cbuf)
		} else {
			w.gw.Reset(&w.cbuf)
		}
		cw, finish = w.gw, w.gw.Close
	default:
		return nil, fmt.Errorf("logfmt: unknown chunk codec %d", w.cfg.Codec)
	}
	if _, err := cw.Write(dict); err != nil {
		return nil, err
	}
	if _, err := cw.Write(records); err != nil {
		return nil, err
	}
	if err := finish(); err != nil {
		return nil, err
	}
	return w.cbuf.Bytes(), nil
}

// appendStringDict appends one dictionary section: a count, then each
// string length-prefixed, in index order.
func appendStringDict(buf []byte, list []string) []byte {
	buf = binary.AppendUvarint(buf, uint64(len(list)))
	for _, s := range list {
		buf = appendString(buf, s)
	}
	return buf
}

// Count returns the number of records written.
func (w *ChunkWriter) Count() int64 { return w.n }

// Close flushes the partial final chunk and buffered output. An empty
// stream still gets the file header, so the file self-identifies.
func (w *ChunkWriter) Close() error {
	if !w.started {
		if err := w.writeFileHeader(); err != nil {
			return err
		}
	}
	if err := w.flushChunk(); err != nil {
		return err
	}
	return w.bw.Flush()
}

// RawChunk is one scanned chunk frame, before decompression. Payload
// aliases the scanner's reuse buffer and is only valid until the next
// Next call; parallel consumers must copy it.
type RawChunk struct {
	// Records is the header's claimed record count.
	Records uint32
	// RawLen is the uncompressed payload size.
	RawLen uint32
	// CRC is the CRC32C of the uncompressed payload.
	CRC uint32
	// Payload is the stored (possibly compressed) payload.
	Payload []byte
	// Offset is the byte offset of the frame start in the stream.
	Offset int64
	// Index is the stream-cumulative record index of the chunk's first
	// record, counting every prior chunk's claimed records.
	Index int64
}

// FrameLen returns the on-disk frame length (header + stored payload).
func (rc *RawChunk) FrameLen() int64 { return chunkHeaderLen + int64(len(rc.Payload)) }

// ChunkScanner walks the chunk frames of a container without
// decompressing them: it validates the file header, each frame's
// marker, header CRC, and size caps, and hands out raw payloads. The
// parallel ingest path uses it as the cheap sequential stage in front
// of concurrent per-chunk decoders. Not safe for concurrent use.
type ChunkScanner struct {
	br      *bufio.Reader
	codec   Codec
	offset  int64
	index   int64
	payload []byte
	started bool
}

// NewChunkScanner returns a scanner over the chunk container in r.
func NewChunkScanner(r io.Reader) *ChunkScanner {
	return &ChunkScanner{br: bufio.NewReaderSize(r, 1<<16)}
}

// Codec returns the container's codec byte; valid after the first Next.
func (s *ChunkScanner) Codec() Codec { return s.codec }

// Offset returns the number of stream bytes consumed so far.
func (s *ChunkScanner) Offset() int64 { return s.offset }

// Next scans the next chunk frame into rc. It returns io.EOF at a clean
// end of stream (after the last complete frame). Corruption — a bad
// file header, marker, header CRC, implausible size, or truncated
// payload — is reported as a *DecodeError positioned at the frame
// start; after one, the stream position is undefined and callers that
// want to continue must Resync first.
func (s *ChunkScanner) Next(rc *RawChunk) error {
	if !s.started {
		if err := s.readFileHeader(); err != nil {
			return err
		}
	}
	frameStart := s.offset
	var hdr [chunkHeaderLen]byte
	n, err := io.ReadFull(s.br, hdr[:])
	s.offset += int64(n)
	if err != nil {
		if err == io.EOF {
			return io.EOF
		}
		if err == io.ErrUnexpectedEOF {
			return s.corrupt(frameStart, int64(n), fmt.Errorf("truncated chunk header (%d of %d bytes)", n, chunkHeaderLen))
		}
		return fmt.Errorf("logfmt: reading chunk header: %w", err)
	}
	records, rawLen, payloadLen, crc, herr := parseChunkHeader(hdr[:])
	if herr != nil {
		return s.corrupt(frameStart, chunkHeaderLen, herr)
	}
	if cap(s.payload) < int(payloadLen) {
		s.payload = make([]byte, payloadLen)
	}
	payload := s.payload[:payloadLen]
	n, err = io.ReadFull(s.br, payload)
	s.offset += int64(n)
	if err != nil {
		return s.corrupt(frameStart, chunkHeaderLen+int64(n), fmt.Errorf("truncated chunk payload (%d of %d bytes): %w", n, payloadLen, err))
	}
	rc.Records = records
	rc.RawLen = rawLen
	rc.CRC = crc
	rc.Payload = payload
	rc.Offset = frameStart
	rc.Index = s.index
	s.index += int64(records)
	return nil
}

func (s *ChunkScanner) readFileHeader() error {
	var hdr [6]byte
	n, err := io.ReadFull(s.br, hdr[:])
	s.offset += int64(n)
	if err != nil {
		if err == io.EOF {
			return io.EOF
		}
		s.started = true
		return s.corrupt(0, int64(n), fmt.Errorf("truncated chunk file header: %w", err))
	}
	s.started = true
	if [5]byte(hdr[:5]) != chunkFileMagic {
		return s.corrupt(0, int64(n), fmt.Errorf("bad chunk magic %q", hdr[:5]))
	}
	if hdr[5] >= byte(codecCount) {
		return s.corrupt(0, int64(n), fmt.Errorf("unknown chunk codec %d", hdr[5]))
	}
	s.codec = Codec(hdr[5])
	return nil
}

func (s *ChunkScanner) corrupt(offset, span int64, err error) error {
	return &DecodeError{Format: "chunk", Offset: offset, Record: s.index, Span: span, Err: err}
}

// parseChunkHeader validates one fixed-width frame header.
func parseChunkHeader(hdr []byte) (records, rawLen, payloadLen, crc uint32, err error) {
	if [4]byte(hdr[:4]) != chunkMarker {
		return 0, 0, 0, 0, fmt.Errorf("bad chunk marker % x", hdr[:4])
	}
	if got, want := crc32.Checksum(hdr[:20], castagnoli), binary.LittleEndian.Uint32(hdr[20:]); got != want {
		return 0, 0, 0, 0, fmt.Errorf("chunk header CRC mismatch (%08x != %08x)", got, want)
	}
	records = binary.LittleEndian.Uint32(hdr[4:])
	rawLen = binary.LittleEndian.Uint32(hdr[8:])
	payloadLen = binary.LittleEndian.Uint32(hdr[12:])
	crc = binary.LittleEndian.Uint32(hdr[16:])
	switch {
	case records == 0 || records > maxChunkRecords:
		err = fmt.Errorf("implausible chunk record count %d", records)
	case rawLen == 0 || rawLen > maxChunkPayload:
		err = fmt.Errorf("implausible chunk raw size %d", rawLen)
	case payloadLen == 0 || payloadLen > maxChunkPayload:
		err = fmt.Errorf("implausible chunk payload size %d", payloadLen)
	}
	return records, rawLen, payloadLen, crc, err
}

// Resync scans forward after a DecodeError for the next chunk marker
// whose fixed-width header also passes the header CRC — a 1-in-2^32
// false-positive rate even against adversarial garbage — and stops with
// the stream positioned at that marker. It returns the number of bytes
// skipped. io.EOF means the stream ended first; the scan gives up with
// an error after maxScan bytes (maxScan <= 0 means 1 MiB).
func (s *ChunkScanner) Resync(maxScan int64) (int64, error) {
	if maxScan <= 0 {
		maxScan = 1 << 20
	}
	var skipped int64
	for skipped < maxScan {
		window, perr := s.br.Peek(s.br.Size())
		if len(window) == 0 {
			return skipped, io.EOF
		}
		for i := 0; i+chunkHeaderLen <= len(window); i++ {
			if skipped+int64(i) >= maxScan {
				break
			}
			if window[i] != chunkMarker[0] {
				continue
			}
			if _, _, _, _, err := parseChunkHeader(window[i : i+chunkHeaderLen]); err == nil {
				s.discard(i)
				return skipped + int64(i), nil
			}
		}
		// Keep a header's worth of tail so a marker straddling the window
		// boundary is seen whole on the next pass.
		n := len(window) - chunkHeaderLen + 1
		if n < 1 {
			n = len(window)
		}
		if int64(n) > maxScan-skipped {
			n = int(maxScan - skipped)
		}
		s.discard(n)
		skipped += int64(n)
		if perr != nil && len(window) < chunkHeaderLen {
			return skipped, io.EOF
		}
	}
	return skipped, fmt.Errorf("logfmt: chunk resync: no chunk boundary within %d bytes", maxScan)
}

func (s *ChunkScanner) discard(n int) {
	d, _ := s.br.Discard(n)
	s.offset += int64(d)
}

// ChunkDecoder turns raw chunks into records: it decompresses through
// the container codec, verifies the payload CRC32C, and decodes the
// record bodies. Its scratch state — the decompression buffer, the
// codec's inflater and the dictionary slices — is reused across
// chunks, so a long-lived decoder (one per ingest worker) allocates
// per distinct string of a chunk, not per record. It keeps no table
// across chunks and hashes nothing: a chunk's dictionary already holds
// each URL and user agent once. Not safe for concurrent use; give each
// goroutine its own.
type ChunkDecoder struct {
	codec Codec
	raw   []byte
	urls  []string // decoded per-chunk dictionaries, reused
	uas   []string
	src   bytes.Reader
	fr    io.ReadCloser
	gr    *gzip.Reader
}

// NewChunkDecoder returns a decoder for the given codec.
func NewChunkDecoder(codec Codec) *ChunkDecoder {
	return &ChunkDecoder{codec: codec}
}

// Decode appends rc's records to dst and returns the extended slice
// (arena-style: pass dst[:0] of a reused batch to decode with no
// per-record allocation). The returned records' string fields are
// copies that alias no decoder buffer and are safe to retain; records
// of one chunk share one copy per distinct URL and user agent, records
// of different chunks do not (a caller that keeps many records
// interns them, see Interner). The slice itself is the caller's.
//
// A chunk whose contents fail — inflate, payload CRC, or record decode
// — is reported as a *DecodeError spanning the whole frame, with dst
// returned at its original length: the frame itself parsed, so the
// stream is still positioned at the next chunk boundary and the chunk
// quarantines whole with no resync needed.
func (d *ChunkDecoder) Decode(rc *RawChunk, dst []Record) ([]Record, error) {
	out, err := d.decode(rc, dst)
	if err != nil {
		return dst, &DecodeError{Format: "chunk", Offset: rc.Offset, Record: rc.Index,
			Span: rc.FrameLen(), Err: err}
	}
	return out, nil
}

func (d *ChunkDecoder) decode(rc *RawChunk, dst []Record) ([]Record, error) {
	raw, err := d.decompress(rc)
	if err != nil {
		return dst, err
	}
	if got := crc32.Checksum(raw, castagnoli); got != rc.CRC {
		return dst, fmt.Errorf("chunk payload CRC mismatch (%08x != %08x)", got, rc.CRC)
	}
	c := decoder{buf: raw}
	if d.urls, err = parseStringDict(&c, d.urls[:0]); err != nil {
		return dst, fmt.Errorf("chunk url dictionary: %w", err)
	}
	if d.uas, err = parseStringDict(&c, d.uas[:0]); err != nil {
		return dst, fmt.Errorf("chunk user-agent dictionary: %w", err)
	}
	// Pre-size the batch from the header's record count, bounded by the
	// smallest possible body (9 one-byte fields) so a forged count
	// cannot force a huge allocation.
	if need := int(rc.Records); cap(dst)-len(dst) < need {
		if max := len(c.buf)/9 + 1; need > max {
			need = max
		}
		grown := make([]Record, len(dst), len(dst)+need)
		copy(grown, dst)
		dst = grown
	}
	var prev int64
	for n := uint32(0); n < rc.Records; n++ {
		if len(dst) < cap(dst) {
			dst = dst[:len(dst)+1]
		} else {
			dst = append(dst, Record{})
		}
		if err := d.decodeBody(&c, &dst[len(dst)-1], &prev); err != nil {
			return dst[:len(dst)-1], fmt.Errorf("chunk record %d: %w", n, err)
		}
	}
	if len(c.buf) != 0 {
		return dst, fmt.Errorf("chunk has %d trailing bytes past %d records", len(c.buf), rc.Records)
	}
	return dst, nil
}

// decodeBody decodes one dictionary-encoded record body from c's
// cursor. This is the per-record hot path: pure varint parsing and two
// slice indexes — no hashing, no copies, no allocation.
func (d *ChunkDecoder) decodeBody(c *decoder, r *Record, prevNano *int64) error {
	delta := c.varint()
	r.ClientID = c.uvarint()
	r.Method = c.dictString(methodTable)
	urlIdx := c.uvarint()
	uaIdx := c.uvarint()
	r.MIMEType = c.dictString(mimeTable)
	r.Status = int(c.uvarint())
	r.Bytes = int64(c.uvarint())
	cacheByte := c.byte()
	if c.err != nil {
		return c.err
	}
	if urlIdx >= uint64(len(d.urls)) || uaIdx >= uint64(len(d.uas)) {
		return fmt.Errorf("dictionary index out of range (url %d of %d, ua %d of %d)",
			urlIdx, len(d.urls), uaIdx, len(d.uas))
	}
	if cacheByte > byte(CacheMiss) {
		return fmt.Errorf("cache status %d", cacheByte)
	}
	r.URL = d.urls[urlIdx]
	r.UserAgent = d.uas[uaIdx]
	*prevNano += delta
	r.Time = time.Unix(0, *prevNano).UTC()
	r.Cache = CacheStatus(cacheByte)
	return nil
}

// parseStringDict parses one dictionary section into one string per
// entry. Each entry is its own allocation, not a substring of one
// chunk-wide string, so a key an observer keeps (a host, an agent)
// pins only itself, never the rest of the chunk's dictionary. The
// count is validated against the remaining payload (every entry costs
// at least one byte), so a forged header cannot force a huge
// allocation.
func parseStringDict(c *decoder, dst []string) ([]string, error) {
	n := c.uvarint()
	if c.err != nil {
		return dst, c.err
	}
	if n > uint64(len(c.buf)) {
		return dst, fmt.Errorf("implausible dictionary size %d", n)
	}
	for i := uint64(0); i < n; i++ {
		s := c.str()
		if c.err != nil {
			return dst, c.err
		}
		dst = append(dst, s)
	}
	return dst, nil
}

// decompress inflates rc.Payload into the reused raw buffer.
func (d *ChunkDecoder) decompress(rc *RawChunk) ([]byte, error) {
	if rc.RawLen > maxChunkPayload {
		return nil, fmt.Errorf("implausible chunk raw size %d", rc.RawLen)
	}
	if d.codec == CodecRaw {
		if int(rc.RawLen) != len(rc.Payload) {
			return nil, fmt.Errorf("raw chunk size mismatch (%d stored, %d claimed)", len(rc.Payload), rc.RawLen)
		}
		return rc.Payload, nil
	}
	if cap(d.raw) < int(rc.RawLen) {
		d.raw = make([]byte, rc.RawLen)
	}
	raw := d.raw[:rc.RawLen]
	d.src.Reset(rc.Payload)
	var r io.Reader
	switch d.codec {
	case CodecFlate:
		if d.fr == nil {
			d.fr = flate.NewReader(&d.src)
		} else if err := d.fr.(flate.Resetter).Reset(&d.src, nil); err != nil {
			return nil, err
		}
		r = d.fr
	case CodecGzip:
		if d.gr == nil {
			gr, err := gzip.NewReader(&d.src)
			if err != nil {
				return nil, fmt.Errorf("bad gzip chunk: %w", err)
			}
			d.gr = gr
		} else if err := d.gr.Reset(&d.src); err != nil {
			return nil, fmt.Errorf("bad gzip chunk: %w", err)
		}
		r = d.gr
	default:
		return nil, fmt.Errorf("unknown chunk codec %d", d.codec)
	}
	if _, err := io.ReadFull(r, raw); err != nil {
		return nil, fmt.Errorf("inflating chunk: %w", err)
	}
	// The inflater must be exactly exhausted; trailing compressed data
	// means the header lied about the raw size.
	var one [1]byte
	if n, _ := r.Read(one[:]); n != 0 {
		return nil, fmt.Errorf("chunk inflates past claimed raw size %d", rc.RawLen)
	}
	return raw, nil
}

// ChunkReader streams records sequentially from a chunk container,
// verifying each chunk's checksums. It implements RecordReader, so it
// drops in anywhere the text Reader does, and Resync, so a
// tolerant caller (package ingest) can skip corrupt regions at chunk
// granularity. Not safe for concurrent use.
type ChunkReader struct {
	sc      *ChunkScanner
	dec     *ChunkDecoder
	rc      RawChunk
	batch   []Record
	pos     int
	lastBad int64
}

// NewChunkReader returns a reader decoding the chunk container from r.
func NewChunkReader(r io.Reader) *ChunkReader {
	return &ChunkReader{sc: NewChunkScanner(r)}
}

// Read decodes the next record. It returns io.EOF at end of stream.
// Corruption is reported as a *DecodeError spanning the bad chunk; a
// chunk that fails its checksum loses all its records (chunk-granularity
// quarantine), and the stream resumes at the next chunk.
func (rd *ChunkReader) Read(r *Record) error {
	for rd.pos >= len(rd.batch) {
		if err := rd.fill(); err != nil {
			return err
		}
	}
	*r = rd.batch[rd.pos]
	rd.pos++
	return nil
}

// fill scans and decodes the next chunk into the reused batch.
func (rd *ChunkReader) fill() error {
	rd.batch, rd.pos = rd.batch[:0], 0
	if err := rd.sc.Next(&rd.rc); err != nil {
		if err != io.EOF {
			rd.lastBad = 0 // framing lost; records in the span unknown
		}
		return err
	}
	if rd.dec == nil {
		rd.dec = NewChunkDecoder(rd.sc.Codec())
	}
	var err error
	if rd.batch, err = rd.dec.Decode(&rd.rc, rd.batch); err != nil {
		rd.lastBad = int64(rd.rc.Records)
	}
	return err
}

// Resync scans forward to the next valid chunk boundary after a
// DecodeError; see ChunkScanner.Resync. When the bad chunk's frame was
// intact (a checksum failure inside it), the scanner is already at the
// next boundary and Resync returns 0 without scanning — whatever
// follows, sound or not, is the next Read's to report.
func (rd *ChunkReader) Resync(maxScan int64) (int64, error) {
	if rd.lastBad > 0 {
		return 0, nil
	}
	return rd.sc.Resync(maxScan)
}

// LastBadRecords returns the header-claimed record count of the most
// recent corrupt chunk (0 when the frame header itself was unreadable),
// which is how many records a chunk-granularity quarantine dropped.
func (rd *ChunkReader) LastBadRecords() int64 { return rd.lastBad }

// Offset returns the number of stream bytes consumed so far.
func (rd *ChunkReader) Offset() int64 { return rd.sc.Offset() }

// ForEach reads every record and calls fn, stopping at EOF or on fn's
// first error. fn receives a pointer into the reader's reused batch —
// no per-record copy — so implementations that retain the record must
// copy it, per the RecordReader contract.
func (rd *ChunkReader) ForEach(fn func(*Record) error) error {
	for {
		for rd.pos < len(rd.batch) {
			if err := fn(&rd.batch[rd.pos]); err != nil {
				return err
			}
			rd.pos++
		}
		err := rd.fill()
		if err == io.EOF {
			return nil
		}
		if err != nil {
			return err
		}
	}
}

// IsChunkMagic reports whether b begins with the chunk container magic.
func IsChunkMagic(b []byte) bool {
	return len(b) >= len(chunkFileMagic) && [5]byte(b[:5]) == chunkFileMagic
}
