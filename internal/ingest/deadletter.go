package ingest

import (
	"bufio"
	"encoding/json"
	"io"
	"sync"

	"repro/internal/logfmt"
)

// Quarantine is one dead-letter entry: the position and reason of a bad
// span, serialized as one JSON line so a quarantine file can be
// inspected (or replayed against a fixed decoder) later.
type Quarantine struct {
	// Format is the wire encoding of the stream ("tsv", "jsonl",
	// "chunk").
	Format string `json:"format"`
	// Offset is the byte offset of the start of the bad span in the
	// (decompressed) stream.
	Offset int64 `json:"offset"`
	// Record is the zero-based index of the failed decode attempt.
	Record int64 `json:"record"`
	// Span is the length of the bad span in bytes, when known.
	Span int64 `json:"span,omitempty"`
	// Reason is the decoder's error text.
	Reason string `json:"reason"`
}

// quarantineFor converts a positional decode error into an entry.
func quarantineFor(de *logfmt.DecodeError) Quarantine {
	return Quarantine{
		Format: de.Format,
		Offset: de.Offset,
		Record: de.Record,
		Span:   de.Span,
		Reason: de.Err.Error(),
	}
}

// DeadLetter records quarantined spans as JSON lines. The zero value
// (and a nil *DeadLetter) counts entries without writing them, so
// callers can always account for quarantines even when no sink is
// configured. Safe for concurrent use.
type DeadLetter struct {
	mu sync.Mutex
	bw *bufio.Writer
	n  int64
}

// NewDeadLetter returns a dead letter writing JSON lines to w (nil w
// counts only).
func NewDeadLetter(w io.Writer) *DeadLetter {
	d := &DeadLetter{}
	if w != nil {
		d.bw = bufio.NewWriter(w)
	}
	return d
}

// Write records one quarantined span.
func (d *DeadLetter) Write(q Quarantine) error {
	if d == nil {
		return nil
	}
	d.mu.Lock()
	defer d.mu.Unlock()
	d.n++
	if d.bw == nil {
		return nil
	}
	line, err := json.Marshal(q)
	if err != nil {
		return err
	}
	if _, err := d.bw.Write(line); err != nil {
		return err
	}
	return d.bw.WriteByte('\n')
}

// Count returns the number of entries recorded.
func (d *DeadLetter) Count() int64 {
	if d == nil {
		return 0
	}
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.n
}

// Flush flushes buffered entries to the underlying writer.
func (d *DeadLetter) Flush() error {
	if d == nil {
		return nil
	}
	d.mu.Lock()
	defer d.mu.Unlock()
	if d.bw == nil {
		return nil
	}
	return d.bw.Flush()
}
