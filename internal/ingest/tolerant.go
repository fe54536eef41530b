package ingest

import (
	"io"

	"repro/internal/logfmt"
)

// TolerantReader wraps a RecordReader (TSV, JSON Lines, or chunk
// container) and keeps decoding across malformed records: each bad span
// is quarantined to the dead letter with its byte offset, record index,
// and reason; chunk streams are resynchronized to the next valid chunk
// boundary; and a max-error-rate budget converts "too corrupt" into a
// hard error. It is the sequential framer over the same ledger the
// pipelines use, and the reference they are tested against
// (TestEntryPointsAgree). TolerantReader is itself a
// logfmt.RecordReader, so it drops in anywhere a strict reader is used.
// Not safe for concurrent use.
type TolerantReader struct {
	rd  logfmt.RecordReader
	led *ledger
}

// NewTolerantReader wraps rd with the given options.
func NewTolerantReader(rd logfmt.RecordReader, opts Options) *TolerantReader {
	return &TolerantReader{rd: rd, led: newLedger(opts)}
}

// Stats returns the accounting so far.
func (t *TolerantReader) Stats() Stats { return t.led.stats }

// resyncer is implemented by readers that can lose stream position on a
// decode error and scan forward to the next plausible boundary
// (logfmt.ChunkReader, at chunk granularity). Text readers consume bad
// lines themselves.
type resyncer interface {
	Resync(maxScan int64) (int64, error)
}

// chunkDropper is implemented by readers whose bad spans hold more than
// one record (the chunk container): LastBadRecords is how many records
// the most recent quarantined span claimed.
type chunkDropper interface {
	LastBadRecords() int64
}

// Read decodes the next good record into r, quarantining any bad spans
// it steps over. It returns io.EOF at end of stream, ErrBudgetExceeded
// (wrapped with position) when the stream is too corrupt, and
// underlying I/O errors unwrapped.
func (t *TolerantReader) Read(r *logfmt.Record) error {
	for {
		err := t.rd.Read(r)
		if err == nil {
			t.led.good(1)
			return nil
		}
		de := logfmt.AsDecodeError(err)
		if de == nil {
			return err // io.EOF or a real I/O failure; nothing to quarantine
		}
		var lost int64
		if cd, ok := t.rd.(chunkDropper); ok {
			lost = cd.LastBadRecords()
		}
		// After a container decode error the stream position may be
		// undefined; scan forward to the next validated chunk header (a
		// no-op when framing survived) before booking the span, so the
		// bytes it cost are part of its entry.
		rs, resynced := t.rd.(resyncer)
		var skipped int64
		var rerr error
		if resynced {
			skipped, rerr = rs.Resync(maxResyncScan)
		}
		if berr := t.led.bad(de, lost, skipped, resynced); berr != nil {
			return berr
		}
		if rerr == io.EOF {
			return io.EOF
		}
		if rerr != nil {
			return resyncFailed(de, rerr)
		}
	}
}

// ForEach reads every good record, stopping at EOF or on fn's first
// error.
func (t *TolerantReader) ForEach(fn func(*logfmt.Record) error) error {
	var rec logfmt.Record
	for {
		err := t.Read(&rec)
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
