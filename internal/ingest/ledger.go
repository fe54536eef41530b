package ingest

import (
	"errors"
	"fmt"

	"repro/internal/logfmt"
)

// ErrBudgetExceeded marks a stream whose corrupt-record fraction blew
// the configured budget: the data is too damaged to trust, so the read
// fails fast instead of silently analyzing a remnant.
var ErrBudgetExceeded = errors.New("ingest: corrupt-record budget exceeded")

// maxResyncScan bounds how far a chunk resynchronization scan may look for the next boundary before the stream is given up on.
const maxResyncScan = 1 << 20

// Options configures tolerant decoding.
type Options struct {
	// MaxErrorRate is the quarantine budget: once more than this
	// fraction of decode attempts has been quarantined (after
	// MinRecords attempts), reading fails with ErrBudgetExceeded.
	// Default 0.05.
	MaxErrorRate float64
	// MinRecords is the grace period before the budget is enforced, so
	// one bad record at the head of a stream cannot trip a percentage
	// budget. Default 64.
	MinRecords int64
	// DeadLetter receives quarantined spans; nil counts only.
	DeadLetter *DeadLetter
	// Metrics, when non-nil, receives the ingest instrumentation.
	Metrics *Instrumentation
}

func (o *Options) sanitize() {
	if o.MaxErrorRate <= 0 {
		o.MaxErrorRate = 0.05
	}
	if o.MinRecords <= 0 {
		o.MinRecords = 64
	}
}

// ledger is the one loss accounting behind every tolerant read: it owns
// the Stats, the dead letter, the metrics, and the budget check, so the
// sequential reader and both pipelines book a given bad span
// identically. Not safe for concurrent use — each read keeps its ledger
// on the goroutine that delivers.
type ledger struct {
	stats Stats
	opts  Options
}

func newLedger(opts Options) *ledger {
	opts.sanitize()
	return &ledger{opts: opts}
}

// good books n successfully decoded records.
func (l *ledger) good(n int64) {
	l.stats.Records += n
	if m := l.opts.Metrics; m != nil {
		m.Records.Add(n)
	}
}

// deliver hands recs to fn in order and books them as good, the one fn
// rejected included.
func (l *ledger) deliver(recs []logfmt.Record, fn func(*logfmt.Record) error) error {
	for i := range recs {
		if err := fn(&recs[i]); err != nil {
			l.good(int64(i + 1))
			return err
		}
	}
	l.good(int64(len(recs)))
	return nil
}

// bad quarantines one bad span: lost records go against the budget
// (one per text line; a chunk loses its whole claimed count, and a span
// whose framing was lost counts as one because the records in it are
// unknown), the span goes to the dead letter, and the budget is
// enforced. resynced marks the format that can lose stream position
// (the chunk container), with skipped the bytes its scan for the next
// boundary discarded. It returns ErrBudgetExceeded, wrapped with
// the position that tripped it, once the stream is too corrupt.
func (l *ledger) bad(de *logfmt.DecodeError, lost, skipped int64, resynced bool) error {
	if lost <= 0 {
		lost = 1
	}
	l.stats.Quarantined += lost
	l.stats.FramesDropped++
	m := l.opts.Metrics
	if m != nil {
		m.Quarantined.Add(lost)
	}
	if resynced {
		l.stats.Resyncs++
		l.stats.BytesSkipped += skipped
		m.Skips(de.Format).Observe(skipped, lost)
	}
	if err := l.opts.DeadLetter.Write(quarantineFor(de)); err != nil {
		return fmt.Errorf("ingest: writing dead letter: %w", err)
	}
	total := l.stats.Records + l.stats.Quarantined
	if total < l.opts.MinRecords {
		return nil
	}
	if rate := l.stats.ErrorRate(); rate > l.opts.MaxErrorRate {
		return fmt.Errorf("%w: %d of %d records quarantined (%.2f%% > %.2f%% budget), tripped at byte %d (record %d): %v",
			ErrBudgetExceeded, l.stats.Quarantined, total,
			rate*100, l.opts.MaxErrorRate*100, de.Offset, de.Record, de.Err)
	}
	return nil
}

// resyncFailed reports a resynchronization scan that gave up after de.
func resyncFailed(de *logfmt.DecodeError, err error) error {
	return fmt.Errorf("ingest: resync after %s record %d at byte %d: %w", de.Format, de.Record, de.Offset, err)
}
