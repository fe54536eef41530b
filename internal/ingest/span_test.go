package ingest

import (
	"bytes"
	"context"
	"testing"

	"repro/internal/logfmt"
	"repro/internal/obs"
)

// TestPipelineStageSpans runs the pipeline under a traced context and
// checks that the three stages report as children of the caller's span
// with read/deliver tallies matching the stream.
func TestPipelineStageSpans(t *testing.T) {
	recs := synthRecords(t, 500)
	stream := encodeTSV(recs)

	tr := obs.NewTrace()
	root := tr.Start("ingest + characterize")
	ctx := obs.ContextWithSpan(context.Background(), root)

	cfg := PipelineConfig{Workers: 2}
	stats, err := Run(ctx, bytes.NewReader(stream), logfmt.FormatTSV, cfg,
		func(*logfmt.Record) error { return nil })
	if err != nil {
		t.Fatal(err)
	}
	root.End()

	byName := map[string]obs.SpanStat{}
	for _, s := range tr.Spans() {
		byName[s.Name] = s
	}
	for _, name := range []string{"ingest read+split", "ingest decode", "ingest deliver"} {
		s, ok := byName[name]
		if !ok {
			t.Errorf("stage %q has no span (have %d spans)", name, len(tr.Spans()))
			continue
		}
		if s.ParentID != byName["ingest + characterize"].ID || s.Depth != 1 {
			t.Errorf("stage %q parent/depth = %d/%d, want child of root", name, s.ParentID, s.Depth)
		}
	}
	if s := byName["ingest read+split"]; s.Bytes != int64(len(stream)) || s.Records != int64(len(recs)) {
		t.Errorf("read stage tallies = %d bytes / %d records, want %d / %d",
			s.Bytes, s.Records, len(stream), len(recs))
	}
	if s := byName["ingest deliver"]; s.Records != stats.Records {
		t.Errorf("deliver stage records = %d, want %d", s.Records, stats.Records)
	}
}

// TestPipelineUntracedContext is the nil-safety contract: no trace in
// the context means no spans and no panics.
func TestPipelineUntracedContext(t *testing.T) {
	recs := synthRecords(t, 50)
	cfg := PipelineConfig{Workers: 2}
	if _, err := Run(context.Background(), bytes.NewReader(encodeTSV(recs)), logfmt.FormatTSV, cfg,
		func(*logfmt.Record) error { return nil }); err != nil {
		t.Fatal(err)
	}
}
