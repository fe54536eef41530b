// Package core abstracts where a log stream comes from behind one Source
// interface, and materializes a source into memory for analyses that
// need several passes. The synthetic generator is a Source here; log
// files are read by ingest.FileSource.
package core

import (
	"repro/internal/logfmt"
	"repro/internal/synth"
)

// Source yields a stream of log records. The *logfmt.Record passed to
// the callback may be reused between calls; callers must copy any
// retained fields. Each returns the callback's first error.
type Source interface {
	Each(fn func(*logfmt.Record) error) error
}

// SynthSource generates records on the fly from a synth.Config; no
// dataset is materialized.
type SynthSource synth.Config

// Each implements Source.
func (s SynthSource) Each(fn func(*logfmt.Record) error) error {
	return synth.Generate(synth.Config(s), fn)
}

// SizeHinter is implemented by sources that can estimate their record
// count up front; Collect uses it to allocate the result slice once
// instead of growing it through the append doubling schedule.
type SizeHinter interface {
	SizeHint() int
}

// SizeHint estimates the record count (the generator hits the target
// within ~10%, so reserve a little headroom).
func (s SynthSource) SizeHint() int { return s.TargetRequests + s.TargetRequests/8 }

// Collect materializes a source into memory. Analyses that need
// multiple passes (prefetch comparison, train/test workflows) collect
// once and reuse the slice.
func Collect(src Source) ([]logfmt.Record, error) {
	var out []logfmt.Record
	if h, ok := src.(SizeHinter); ok {
		if n := h.SizeHint(); n > 0 {
			out = make([]logfmt.Record, 0, n)
		}
	}
	err := src.Each(func(r *logfmt.Record) error {
		out = append(out, *r)
		return nil
	})
	if err != nil {
		return nil, err
	}
	return out, nil
}
