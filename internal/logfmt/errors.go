package logfmt

import (
	"errors"
	"fmt"
)

// DecodeError reports a malformed record with its position in the
// stream, so callers can quarantine the exact bad span and resume. The
// text Reader wraps every per-line decode failure, and the chunk
// scanner and decoder every per-chunk one, in a *DecodeError; I/O
// failures of the underlying reader are returned unwrapped.
//
// Offsets are measured in bytes of the decoded stream: for gzipped
// input they index the uncompressed bytes, which is what a dead-letter
// scan of the re-inflated stream needs.
type DecodeError struct {
	// Format names the wire encoding ("tsv", "jsonl", "chunk").
	Format string
	// Offset is the byte offset of the start of the bad span.
	Offset int64
	// Record is the zero-based index of the failed record in the stream
	// (counting every decode attempt, good or bad); for a chunk, the
	// index of its first record.
	Record int64
	// Span is the length in bytes of the bad span as far as it was read:
	// the consumed line, the chunk frame, or the header bytes of a frame
	// whose framing was lost.
	Span int64
	// Err is the underlying parse error.
	Err error
}

// Error implements error.
func (e *DecodeError) Error() string {
	return fmt.Sprintf("logfmt: %s record %d at byte %d: %v", e.Format, e.Record, e.Offset, e.Err)
}

// Unwrap returns the underlying parse error.
func (e *DecodeError) Unwrap() error { return e.Err }

// AsDecodeError unwraps err to a *DecodeError, or returns nil if the
// error chain holds none.
func AsDecodeError(err error) *DecodeError {
	var de *DecodeError
	if errors.As(err, &de) {
		return de
	}
	return nil
}
