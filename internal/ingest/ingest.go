// Package ingest is the hardened log-to-analysis path: tolerant
// decoding of corrupt log streams with dead-letter quarantine, a
// bounded, cancellable decode pipeline with backpressure, and accurate
// accounting of what was kept, skipped, and resynchronized.
//
// The paper's analyses are functions of a 35M-record edge-log stream;
// at that scale real CDN logs arrive truncated, interleaved, and
// partially corrupt. The decoders in internal/logfmt report corruption
// as positional *logfmt.DecodeError values; this package turns those
// into quarantine entries and keeps the stream flowing, governed by a
// max-error-rate budget that converts "too corrupt to trust" into a
// hard, positional error.
package ingest

import (
	"time"

	"repro/internal/obs"
)

// Stats is the accounting of one tolerant read or pipeline run.
type Stats struct {
	// Records is the number of records decoded successfully.
	Records int64
	// Quarantined is the number of records lost to quarantined spans.
	// For the text formats one span is one record; for the chunk
	// container a quarantined chunk loses its whole claimed record
	// count, so the error budget stays record-denominated across
	// formats.
	Quarantined int64
	// FramesDropped is the number of bad spans (lines or chunks) sent
	// to the dead letter.
	FramesDropped int64
	// Resyncs is the number of chunk-container resynchronization scans.
	Resyncs int64
	// BytesSkipped is the number of bytes discarded while resyncing.
	BytesSkipped int64
}

// ErrorRate returns the fraction of decode attempts that were
// quarantined (0 when nothing was read).
func (s Stats) ErrorRate() float64 {
	total := s.Records + s.Quarantined
	if total == 0 {
		return 0
	}
	return float64(s.Quarantined) / float64(total)
}

// SkipMetrics is the structured resync/skip accounting of the formats
// that can lose stream position — today only the chunk container — as
// one metric family labeled by format.
type SkipMetrics struct {
	// Resyncs counts resynchronization scans
	// (ingest_resyncs_total{format=...}).
	Resyncs *obs.Counter
	// SkippedBytes counts bytes discarded while resyncing
	// (ingest_skipped_bytes_total{format=...}).
	SkippedBytes *obs.Counter
	// DroppedFrames counts bad chunks quarantined
	// (ingest_dropped_frames_total{format=...}).
	DroppedFrames *obs.Counter
	// DroppedRecords counts records lost inside those spans
	// (ingest_dropped_records_total{format=...}).
	DroppedRecords *obs.Counter
}

// Observe records one quarantine/resync event: a dropped span holding
// records lost records, with bytes skipped finding the next boundary.
// Nil receivers are no-ops so unmetered paths need no guards.
func (s *SkipMetrics) Observe(bytesSkipped, records int64) {
	if s == nil {
		return
	}
	s.Resyncs.Inc()
	s.SkippedBytes.Add(bytesSkipped)
	s.DroppedFrames.Inc()
	s.DroppedRecords.Add(records)
}

// Instrumentation holds the pre-resolved ingest metrics, mirroring
// edge.Instrumentation and resilience.Instrumentation: the per-record
// hot path pays no registry lookups.
type Instrumentation struct {
	// Records counts successfully decoded records
	// (ingest_records_total).
	Records *obs.Counter
	// Quarantined counts records lost to quarantined spans
	// (ingest_quarantined_total).
	Quarantined *obs.Counter
	// QueueDepth is the pipeline's bounded-queue occupancy in units —
	// line batches or chunks (ingest_queue_depth).
	QueueDepth *obs.Gauge
	// DecodeSeconds is the decode latency distribution, one
	// observation per decoded unit — a batch of text lines or one chunk
	// (ingest_decode_seconds).
	DecodeSeconds *obs.HDRHistogram

	// ChunkSkips is the chunk container's view of the skip metric
	// family (format="chunk").
	ChunkSkips *SkipMetrics
}

// decodeStart and decodeDone bracket the decode of one unit. The clock
// is read only when metrics are attached.
func (i *Instrumentation) decodeStart() time.Time {
	if i == nil {
		return time.Time{}
	}
	return time.Now()
}

func (i *Instrumentation) decodeDone(start time.Time) {
	if i != nil {
		i.DecodeSeconds.RecordDuration(time.Since(start))
	}
}

// Skips returns the skip metrics for a DecodeError format name
// ("chunk"; other formats have no resync path and get nil).
func (i *Instrumentation) Skips(format string) *SkipMetrics {
	if i == nil || format != "chunk" {
		return nil
	}
	return i.ChunkSkips
}

// newSkipMetrics resolves the skip family for one format label.
func newSkipMetrics(reg *obs.Registry, format string) *SkipMetrics {
	return &SkipMetrics{
		Resyncs:        reg.Counter("ingest_resyncs_total", "format", format),
		SkippedBytes:   reg.Counter("ingest_skipped_bytes_total", "format", format),
		DroppedFrames:  reg.Counter("ingest_dropped_frames_total", "format", format),
		DroppedRecords: reg.Counter("ingest_dropped_records_total", "format", format),
	}
}

// NewInstrumentation registers the ingest metrics in reg and returns
// them. Calling it twice with the same registry returns the same
// underlying metrics. A nil registry returns nil, which every consumer
// tolerates.
func NewInstrumentation(reg *obs.Registry) *Instrumentation {
	if reg == nil {
		return nil
	}
	reg.Help("ingest_records_total", "Records decoded successfully by the ingest path.")
	reg.Help("ingest_quarantined_total", "Records lost to spans quarantined to the dead letter.")
	reg.Help("ingest_resyncs_total", "Stream resynchronization scans, by format.")
	reg.Help("ingest_skipped_bytes_total", "Bytes discarded while resynchronizing, by format.")
	reg.Help("ingest_dropped_frames_total", "Bad frames/chunks quarantined, by format.")
	reg.Help("ingest_dropped_records_total", "Records lost inside quarantined frames/chunks, by format.")
	reg.Help("ingest_queue_depth", "Bounded ingest queue occupancy, in line batches or chunks.")
	reg.Help("ingest_decode_seconds", "Decode latency per unit: one batch of text lines or one chunk.")
	return &Instrumentation{
		Records:       reg.Counter("ingest_records_total"),
		Quarantined:   reg.Counter("ingest_quarantined_total"),
		QueueDepth:    reg.Gauge("ingest_queue_depth"),
		DecodeSeconds: reg.HDR("ingest_decode_seconds", obs.LatencyHDRConfig()),
		ChunkSkips:    newSkipMetrics(reg, "chunk"),
	}
}
