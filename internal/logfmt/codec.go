package logfmt

import (
	"bufio"
	"compress/gzip"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"os"
	"strconv"
	"strings"
	"time"
)

// The TSV wire format is one record per line:
//
//	time \t clientID(hex) \t method \t url \t cacheStatus \t status \t bytes \t mime \t userAgent
//
// The user agent comes last because it is the only field that may contain
// arbitrary text (tabs and newlines inside it are escaped).

const tsvFields = 9

// AppendTSV appends the TSV encoding of r (including trailing newline) to
// dst and returns the extended slice.
func AppendTSV(dst []byte, r *Record) []byte {
	dst = append(dst, formatTime(r.Time)...)
	dst = append(dst, '\t')
	dst = append(dst, formatClientID(r.ClientID)...)
	dst = append(dst, '\t')
	dst = append(dst, r.Method...)
	dst = append(dst, '\t')
	dst = append(dst, r.URL...)
	dst = append(dst, '\t')
	dst = append(dst, r.Cache.String()...)
	dst = append(dst, '\t')
	dst = strconv.AppendInt(dst, int64(r.Status), 10)
	dst = append(dst, '\t')
	dst = strconv.AppendInt(dst, r.Bytes, 10)
	dst = append(dst, '\t')
	dst = append(dst, r.MIMEType...)
	dst = append(dst, '\t')
	dst = appendEscaped(dst, r.UserAgent)
	dst = append(dst, '\n')
	return dst
}

func appendEscaped(dst []byte, s string) []byte {
	for i := 0; i < len(s); i++ {
		switch s[i] {
		case '\t':
			dst = append(dst, '\\', 't')
		case '\n':
			dst = append(dst, '\\', 'n')
		case '\\':
			dst = append(dst, '\\', '\\')
		default:
			dst = append(dst, s[i])
		}
	}
	return dst
}

func unescape(s string) string {
	if !strings.ContainsRune(s, '\\') {
		return s
	}
	var b strings.Builder
	b.Grow(len(s))
	for i := 0; i < len(s); i++ {
		if s[i] == '\\' && i+1 < len(s) {
			i++
			switch s[i] {
			case 't':
				b.WriteByte('\t')
			case 'n':
				b.WriteByte('\n')
			case '\\':
				b.WriteByte('\\')
			default:
				b.WriteByte('\\')
				b.WriteByte(s[i])
			}
		} else {
			b.WriteByte(s[i])
		}
	}
	return b.String()
}

// ParseTSV parses one TSV line (without trailing newline) into r.
func ParseTSV(line string, r *Record) error {
	// Cut the fields in place, the last taking the rest of the line.
	var fields [tsvFields]string
	n := 0
	for ; n < tsvFields-1; n++ {
		i := strings.IndexByte(line, '\t')
		if i < 0 {
			break
		}
		fields[n], line = line[:i], line[i+1:]
	}
	fields[n] = line
	if n != tsvFields-1 {
		return fmt.Errorf("logfmt: TSV line has %d fields, want %d", n+1, tsvFields)
	}
	t, err := parseTime(fields[0])
	if err != nil {
		return fmt.Errorf("logfmt: bad time %q: %w", fields[0], err)
	}
	id, err := parseClientID(fields[1])
	if err != nil {
		return fmt.Errorf("logfmt: bad client id %q: %w", fields[1], err)
	}
	cache, err := ParseCacheStatus(fields[4])
	if err != nil {
		return err
	}
	status, err := strconv.Atoi(fields[5])
	if err != nil {
		return fmt.Errorf("logfmt: bad status %q: %w", fields[5], err)
	}
	size, err := strconv.ParseInt(fields[6], 10, 64)
	if err != nil {
		return fmt.Errorf("logfmt: bad size %q: %w", fields[6], err)
	}
	r.Time = t
	r.ClientID = id
	r.Method = canonMethod(fields[2])
	r.URL = fields[3]
	r.Cache = cache
	r.Status = status
	r.Bytes = size
	r.MIMEType = canonMIME(fields[7])
	r.UserAgent = unescape(fields[8])
	return nil
}

// jsonRecord is the JSON Lines representation of Record.
type jsonRecord struct {
	Time      time.Time `json:"time"`
	ClientID  string    `json:"client_id"`
	Method    string    `json:"method"`
	URL       string    `json:"url"`
	UserAgent string    `json:"user_agent,omitempty"`
	MIMEType  string    `json:"mime_type"`
	Status    int       `json:"status"`
	Bytes     int64     `json:"bytes"`
	Cache     string    `json:"cache"`
}

// MarshalJSONLine returns the JSON Lines encoding of r (one JSON object,
// no trailing newline).
func MarshalJSONLine(r *Record) ([]byte, error) {
	return json.Marshal(jsonRecord{
		Time:      r.Time.UTC(),
		ClientID:  formatClientID(r.ClientID),
		Method:    r.Method,
		URL:       r.URL,
		UserAgent: r.UserAgent,
		MIMEType:  r.MIMEType,
		Status:    r.Status,
		Bytes:     r.Bytes,
		Cache:     r.Cache.String(),
	})
}

// UnmarshalJSONLine parses one JSON Lines object into r.
func UnmarshalJSONLine(data []byte, r *Record) error {
	var jr jsonRecord
	if err := json.Unmarshal(data, &jr); err != nil {
		return fmt.Errorf("logfmt: bad JSON record: %w", err)
	}
	id, err := parseClientID(jr.ClientID)
	if err != nil {
		return fmt.Errorf("logfmt: bad client id %q: %w", jr.ClientID, err)
	}
	cache, err := ParseCacheStatus(jr.Cache)
	if err != nil {
		return err
	}
	r.Time = jr.Time
	r.ClientID = id
	r.Method = canonMethod(jr.Method)
	r.URL = jr.URL
	r.UserAgent = jr.UserAgent
	r.MIMEType = canonMIME(jr.MIMEType)
	r.Status = jr.Status
	r.Bytes = jr.Bytes
	r.Cache = cache
	return nil
}

// Format selects a log encoding.
type Format uint8

const (
	// FormatTSV is the compact tab-separated native format.
	FormatTSV Format = iota
	// FormatJSONL is JSON Lines.
	FormatJSONL
)

// Name returns the short wire name of the format, as used in
// DecodeError.Format and quarantine entries.
func (f Format) Name() string {
	switch f {
	case FormatTSV:
		return "tsv"
	case FormatJSONL:
		return "jsonl"
	default:
		return fmt.Sprintf("format(%d)", f)
	}
}

// Writer streams records to an underlying io.Writer in a chosen format,
// buffered. Close flushes; it closes the underlying writer only if it is
// an io.Closer the Writer created itself (gzip layer). Writer is not safe
// for concurrent use.
type Writer struct {
	bw     *bufio.Writer
	gz     *gzip.Writer
	format Format
	buf    []byte
	n      int64
}

// NewWriter returns a Writer emitting the given format to w.
func NewWriter(w io.Writer, format Format) *Writer {
	return &Writer{bw: bufio.NewWriterSize(w, 1<<16), format: format}
}

// NewGzipWriter returns a Writer that gzip-compresses its output.
func NewGzipWriter(w io.Writer, format Format) *Writer {
	gz := gzip.NewWriter(w)
	lw := NewWriter(gz, format)
	lw.gz = gz
	return lw
}

// Write encodes and buffers one record.
func (w *Writer) Write(r *Record) error {
	switch w.format {
	case FormatTSV:
		w.buf = AppendTSV(w.buf[:0], r)
	case FormatJSONL:
		line, err := MarshalJSONLine(r)
		if err != nil {
			return err
		}
		w.buf = append(line, '\n')
	default:
		return fmt.Errorf("logfmt: unknown format %d", w.format)
	}
	if _, err := w.bw.Write(w.buf); err != nil {
		return err
	}
	w.n++
	return nil
}

// Count returns the number of records written so far.
func (w *Writer) Count() int64 { return w.n }

// Close flushes buffered data and finalizes any compression layer.
func (w *Writer) Close() error {
	if err := w.bw.Flush(); err != nil {
		return err
	}
	if w.gz != nil {
		return w.gz.Close()
	}
	return nil
}

// Line is one non-blank line of a text log with its position in the
// (decompressed) stream.
type Line struct {
	// Text is the line without its trailing newline.
	Text string
	// Offset is the byte offset of the start of the line.
	Offset int64
	// Span is the number of bytes the line consumed: the newline is
	// counted only when one was present (the last line may lack it).
	Span int64
	// Num is the one-based physical line number, blank lines included.
	Num int64
	// Index is the zero-based record index, counting every non-blank
	// line, good or bad.
	Index int64
}

// Decode parses the line as format into r. A malformed line is reported
// as a *DecodeError carrying the line's position, so every reader of
// the text formats — strict or tolerant, sequential or parallel — names
// a given bad line identically.
func (l *Line) Decode(format Format, r *Record) error {
	var err error
	switch format {
	case FormatTSV:
		err = ParseTSV(l.Text, r)
	case FormatJSONL:
		err = UnmarshalJSONLine([]byte(l.Text), r)
	default:
		err = fmt.Errorf("logfmt: unknown format %d", format)
	}
	if err == nil {
		return nil
	}
	return &DecodeError{
		Format: format.Name(),
		Offset: l.Offset,
		Record: l.Index,
		Span:   l.Span,
		Err:    fmt.Errorf("line %d: %w", l.Num, err),
	}
}

// LineScanner splits a text log into its non-blank lines, transparently
// decompressing gzip input (detected by magic bytes). It is the one
// line splitter: Reader.Read and the parallel ingest pipeline both
// frame through it. Not safe for concurrent use.
type LineScanner struct {
	br      *bufio.Reader
	offset  int64
	num     int64
	records int64
	err     error // read error held back behind a final unterminated line
}

// NewLineScanner returns a scanner over the lines of r.
func NewLineScanner(r io.Reader) (*LineScanner, error) {
	br := bufio.NewReaderSize(r, 1<<16)
	magic, err := br.Peek(2)
	if err == nil && len(magic) == 2 && magic[0] == 0x1f && magic[1] == 0x8b {
		gz, err := gzip.NewReader(br)
		if err != nil {
			return nil, fmt.Errorf("logfmt: bad gzip stream: %w", err)
		}
		br = bufio.NewReaderSize(gz, 1<<16)
	}
	return &LineScanner{br: br}, nil
}

// Next scans the next non-blank line into l. It returns io.EOF at end
// of stream; any other error is the underlying reader's.
func (s *LineScanner) Next(l *Line) error {
	for s.err == nil {
		text, err := s.br.ReadString('\n')
		s.err = err
		if len(text) == 0 {
			break
		}
		start := s.offset
		s.offset += int64(len(text))
		s.num++
		trimmed := strings.TrimRight(text, "\n")
		if trimmed == "" {
			continue
		}
		*l = Line{Text: trimmed, Offset: start, Span: int64(len(text)), Num: s.num, Index: s.records}
		s.records++
		return nil
	}
	return s.err
}

// Offset returns the number of bytes of the (decompressed) stream
// consumed so far.
func (s *LineScanner) Offset() int64 { return s.offset }

// Records returns the number of non-blank lines scanned so far.
func (s *LineScanner) Records() int64 { return s.records }

// Reader streams records from an underlying io.Reader, transparently
// detecting gzip. Reader is not safe for concurrent use.
//
// Decoded URL and user-agent strings are interned per reader (see
// Interner): repeated values share one canonical copy instead of each
// record pinning its own — on the TSV path that copy also releases the
// source line the substrings would otherwise keep alive.
type Reader struct {
	sc     *LineScanner
	format Format
	intern *Interner
}

// NewReader returns a Reader decoding the given format from r,
// transparently decompressing gzip input (detected by magic bytes).
func NewReader(r io.Reader, format Format) (*Reader, error) {
	sc, err := NewLineScanner(r)
	if err != nil {
		return nil, err
	}
	return &Reader{sc: sc, format: format, intern: NewInterner(0)}, nil
}

// Read decodes the next record into r. It returns io.EOF at end of
// stream. Blank lines are skipped. Malformed lines are reported as a
// *DecodeError carrying the byte offset and record index of the bad
// span; the line is already consumed, so the next Read resumes at the
// following line — callers that tolerate corruption (package ingest)
// quarantine the span and keep reading.
func (rd *Reader) Read(r *Record) error {
	var l Line
	if err := rd.sc.Next(&l); err != nil {
		return err
	}
	if err := l.Decode(rd.format, r); err != nil {
		return err
	}
	r.URL = rd.intern.Intern(r.URL)
	r.UserAgent = rd.intern.Intern(r.UserAgent)
	return nil
}

// Offset returns the number of bytes of the (decompressed) stream
// consumed so far.
func (rd *Reader) Offset() int64 { return rd.sc.Offset() }

// ForEach reads every record in the stream and calls fn. It stops at EOF,
// or earlier if fn returns a non-nil error, which is then returned.
func (rd *Reader) ForEach(fn func(*Record) error) error {
	var rec Record
	for {
		err := rd.Read(&rec)
		if err == io.EOF {
			return nil
		}
		if err != nil {
			return err
		}
		if err := fn(&rec); err != nil {
			return err
		}
	}
}

// RecordReader is implemented by every log decoder: the text Reader and
// the ChunkReader.
type RecordReader interface {
	// Read decodes the next record, returning io.EOF at end of stream.
	Read(*Record) error
	// ForEach reads every record, stopping at EOF or on fn's first error.
	ForEach(fn func(*Record) error) error
}

// RecordWriter is implemented by every log encoder.
type RecordWriter interface {
	// Write encodes one record.
	Write(*Record) error
	// Count returns the number of records written so far.
	Count() int64
	// Close flushes buffered output and finalizes compression layers.
	Close() error
}

// CreateFile creates path and returns a writer in the format its
// extension names: .cdnc → the chunk container shaped by cfg (the zero
// ChunkConfig writes raw chunks), .jsonl → JSON Lines, anything else →
// TSV, with a .gz suffix gzip-compressing the text formats. A .cdnb[.gz]
// path is refused with ErrBinaryStream before anything is created.
// Closing the returned writer flushes it and closes the file. Package
// ingest's FileSource is the reading side.
func CreateFile(path string, cfg ChunkConfig) (RecordWriter, error) {
	if err := CheckRetired(path, nil); err != nil {
		return nil, err
	}
	f, err := os.Create(path)
	if err != nil {
		return nil, err
	}
	var w RecordWriter
	switch {
	case strings.HasSuffix(path, ".cdnc"):
		w = NewChunkWriter(f, cfg)
	case strings.HasSuffix(path, ".gz"):
		w = NewGzipWriter(f, FormatForPath(path))
	default:
		w = NewWriter(f, FormatForPath(path))
	}
	return fileWriter{w, f}, nil
}

// fileWriter is a RecordWriter over a file it closes after flushing.
type fileWriter struct {
	RecordWriter
	f *os.File
}

func (w fileWriter) Close() error {
	return errors.Join(w.RecordWriter.Close(), w.f.Close())
}

// FormatForPath infers the text encoding format from a file name.
func FormatForPath(path string) Format {
	p := strings.TrimSuffix(path, ".gz")
	if strings.HasSuffix(p, ".jsonl") {
		return FormatJSONL
	}
	return FormatTSV
}
