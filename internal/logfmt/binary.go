package logfmt

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"strings"
)

// The binary stream is a retired encoding: a 5-byte magic header, then
// one length-delimited record after another, with timestamps
// delta-encoded across the whole stream and common methods and MIME
// types replaced by one-byte dictionary indices. Nothing reads it; logs
// are stored in the chunk container, and CheckRetired refuses old
// files. BinaryWriter remains as a size yardstick. The dictionary
// tables, string encoders and decoder below are the chunk container's.

// binaryMagic identifies a binary log stream (format version 1).
var binaryMagic = [5]byte{'C', 'D', 'N', 'J', '1'}

// ErrBinaryStream reports a log in the retired .cdnb binary stream
// format. CreateFile and ingest.FileSource return it (see CheckRetired)
// instead of writing TSV under a binary name or parsing the stream as
// TSV lines.
var ErrBinaryStream = errors.New("the .cdnb binary stream format is retired; write or regenerate the log as a .cdnc chunk container")

// CheckRetired returns an error wrapping ErrBinaryStream when path names
// a .cdnb[.gz] file or head, the first bytes of a log, starts with the
// binary stream magic; otherwise nil.
func CheckRetired(path string, head []byte) error {
	if strings.HasSuffix(strings.TrimSuffix(path, ".gz"), ".cdnb") ||
		len(head) >= len(binaryMagic) && [5]byte(head[:5]) == binaryMagic {
		return fmt.Errorf("logfmt: %s: %w", path, ErrBinaryStream)
	}
	return nil
}

// Dictionary tables; index 0 is reserved for "literal string follows".
var (
	methodTable = []string{"", "GET", "POST", "HEAD", "PUT", "DELETE", "OPTIONS", "PATCH"}
	mimeTable   = []string{"", "application/json", "text/html", "image/jpeg",
		"application/javascript", "text/css", "image/png", "application/octet-stream"}
)

func tableIndex(table []string, s string) byte {
	for i := 1; i < len(table); i++ {
		if table[i] == s {
			return byte(i)
		}
	}
	return 0
}

// BinaryWriter streams records in the retired binary stream format. It
// survives only as the size yardstick bench/archive.go measures the
// chunk container against (logfmt.bytes_ratio_vs_binary), and goes with
// the benchmark's next revision. BinaryWriter is not safe for
// concurrent use.
type BinaryWriter struct {
	bw       *bufio.Writer
	buf      []byte
	prevNano int64
	n        int64
	started  bool
}

// NewBinaryWriter returns a writer emitting the binary format to w.
func NewBinaryWriter(w io.Writer) *BinaryWriter {
	return &BinaryWriter{bw: bufio.NewWriterSize(w, 1<<16)}
}

// Write encodes one record.
func (w *BinaryWriter) Write(r *Record) error {
	if !w.started {
		if _, err := w.bw.Write(binaryMagic[:]); err != nil {
			return err
		}
		w.started = true
	}
	buf := appendRecordBody(w.buf[:0], r, &w.prevNano)
	w.buf = buf

	var hdr [binary.MaxVarintLen32]byte
	n := binary.PutUvarint(hdr[:], uint64(len(buf)))
	if _, err := w.bw.Write(hdr[:n]); err != nil {
		return err
	}
	if _, err := w.bw.Write(buf); err != nil {
		return err
	}
	w.n++
	return nil
}

// Count returns the number of records written.
func (w *BinaryWriter) Count() int64 { return w.n }

// Close flushes buffered output.
func (w *BinaryWriter) Close() error { return w.bw.Flush() }

// appendRecordBody appends the binary stream's frame payload encoding
// of r and advances *prevNano to r's timestamp for the delta chain.
func appendRecordBody(buf []byte, r *Record, prevNano *int64) []byte {
	nano := r.Time.UnixNano()
	buf = binary.AppendVarint(buf, nano-*prevNano)
	*prevNano = nano
	buf = binary.AppendUvarint(buf, r.ClientID)
	buf = appendDictString(buf, methodTable, r.Method)
	buf = appendString(buf, r.URL)
	buf = appendString(buf, r.UserAgent)
	buf = appendDictString(buf, mimeTable, r.MIMEType)
	buf = binary.AppendUvarint(buf, uint64(r.Status))
	buf = binary.AppendUvarint(buf, uint64(r.Bytes))
	buf = append(buf, byte(r.Cache))
	return buf
}

func appendDictString(buf []byte, table []string, s string) []byte {
	if i := tableIndex(table, s); i != 0 {
		return append(buf, i)
	}
	buf = append(buf, 0)
	return appendString(buf, s)
}

func appendString(buf []byte, s string) []byte {
	buf = binary.AppendUvarint(buf, uint64(len(s)))
	return append(buf, s...)
}

// decoder is a cursor over one encoded chunk payload.
type decoder struct {
	buf []byte
	err error
}

var errShortRecord = fmt.Errorf("short record")

func (d *decoder) varint() int64 {
	if d.err != nil {
		return 0
	}
	v, n := binary.Varint(d.buf)
	if n <= 0 {
		d.err = errShortRecord
		return 0
	}
	d.buf = d.buf[n:]
	return v
}

func (d *decoder) uvarint() uint64 {
	if d.err != nil {
		return 0
	}
	// One- and two-byte fast paths: nearly every field (dictionary
	// indices, client IDs, status codes, response sizes) fits in 14
	// bits, and this is the chunk container's per-record hot loop.
	if len(d.buf) >= 2 {
		b0 := d.buf[0]
		if b0 < 0x80 {
			d.buf = d.buf[1:]
			return uint64(b0)
		}
		if b1 := d.buf[1]; b1 < 0x80 {
			d.buf = d.buf[2:]
			return uint64(b0&0x7f) | uint64(b1)<<7
		}
	}
	v, n := binary.Uvarint(d.buf)
	if n <= 0 {
		d.err = errShortRecord
		return 0
	}
	d.buf = d.buf[n:]
	return v
}

func (d *decoder) byte() byte {
	if d.err != nil {
		return 0
	}
	if len(d.buf) < 1 {
		d.err = errShortRecord
		return 0
	}
	b := d.buf[0]
	d.buf = d.buf[1:]
	return b
}

// str decodes a length-prefixed string into a fresh copy of its bytes,
// so it never aliases the (possibly recycled) payload buffer.
func (d *decoder) str() string {
	n := d.uvarint()
	if d.err != nil {
		return ""
	}
	if uint64(len(d.buf)) < n {
		d.err = errShortRecord
		return ""
	}
	b := d.buf[:n]
	d.buf = d.buf[n:]
	return string(b)
}

func (d *decoder) dictString(table []string) string {
	i := d.byte()
	if d.err != nil {
		return ""
	}
	if i == 0 {
		return d.str()
	}
	if int(i) >= len(table) {
		d.err = fmt.Errorf("dictionary index %d out of range", i)
		return ""
	}
	return table[i]
}
