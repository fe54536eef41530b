package experiments

import (
	"bytes"
	"context"
	"errors"
	"io"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"repro/internal/ingest"
	"repro/internal/logfmt"
)

// corruptAndDecode writes recs one record per chunk, smashes every
// strideth chunk's trailing byte (so its checksum fails and exactly its
// one record is lost), and decodes the container tolerantly, returning
// the surviving records.
func corruptAndDecode(t *testing.T, recs []logfmt.Record, stride int) ([]logfmt.Record, ingest.Stats) {
	t.Helper()
	var buf bytes.Buffer
	w := logfmt.NewChunkWriter(&buf, logfmt.ChunkConfig{ChunkRecords: 1})
	for i := range recs {
		if err := w.Write(&recs[i]); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	stream := bytes.Clone(buf.Bytes())
	sc := logfmt.NewChunkScanner(&buf)
	var rc logfmt.RawChunk
	for i := 0; sc.Next(&rc) == nil; i++ {
		if i%stride == stride-1 {
			stream[rc.Offset+rc.FrameLen()-1] = 0xEE
		}
	}
	tr := ingest.NewTolerantReader(logfmt.NewChunkReader(bytes.NewReader(stream)),
		ingest.Options{MaxErrorRate: 0.05})
	var out []logfmt.Record
	if err := tr.ForEach(func(r *logfmt.Record) error {
		out = append(out, *r)
		return nil
	}); err != nil {
		t.Fatalf("tolerant decode: %v", err)
	}
	return out, tr.Stats()
}

func within(got, want, tol float64) bool {
	if want == 0 {
		return got == 0
	}
	return math.Abs(got-want)/math.Abs(want) <= tol
}

// TestToleranceCorruptStream runs Figure 1 and Table 2 over a stream
// with ~1% seeded corruption pushed through the tolerant ingest path
// and checks the results stay within a small tolerance of the
// clean-stream run.
func TestToleranceCorruptStream(t *testing.T) {
	r1 := runner()
	short, err := r1.ShortTermRecords()
	if err != nil {
		t.Fatal(err)
	}
	pattern, err := r1.PatternRecords()
	if err != nil {
		t.Fatal(err)
	}
	fig1Clean, err := r1.Figure1(nil)
	if err != nil {
		t.Fatal(err)
	}
	t2Clean, err := r1.Table2(nil)
	if err != nil {
		t.Fatal(err)
	}

	shortTol, shortStats := corruptAndDecode(t, short, 100)
	patternTol, patternStats := corruptAndDecode(t, pattern, 100)
	if shortStats.Quarantined == 0 || patternStats.Quarantined == 0 {
		t.Fatalf("corruption not injected: %+v %+v", shortStats, patternStats)
	}

	r2 := NewRunner(r1.Config())
	r2.UseShortTermRecords(shortTol)
	r2.UsePatternRecords(patternTol)
	fig1Tol, err := r2.Figure1(nil)
	if err != nil {
		t.Fatal(err)
	}
	t2Tol, err := r2.Table2(nil)
	if err != nil {
		t.Fatal(err)
	}

	// Figure 1's trend counters are seeded by config, not the stream.
	if !within(fig1Tol.EndRatio, fig1Clean.EndRatio, 0.01) ||
		!within(fig1Tol.SizeShrink, fig1Clean.SizeShrink, 0.01) {
		t.Errorf("Figure 1 diverged: %+v vs %+v", fig1Tol, fig1Clean)
	}
	// Table 2 loses exactly the quarantined ~1%; every reported shape
	// statistic stays within a few percent of the clean run.
	for _, cmp := range []struct {
		name      string
		got, want float64
		tol       float64
	}{
		{"short records", float64(t2Tol.Short.Records()), float64(t2Clean.Short.Records()), 0.02},
		{"pattern records", float64(t2Tol.Pattern.Records()), float64(t2Clean.Pattern.Records()), 0.02},
		{"short domains", float64(t2Tol.Short.Domains()), float64(t2Clean.Short.Domains()), 0.05},
		{"pattern domains", float64(t2Tol.Pattern.Domains()), float64(t2Clean.Pattern.Domains()), 0.05},
		{"short clients", float64(t2Tol.Short.Clients()), float64(t2Clean.Short.Clients()), 0.05},
		{"short duration", t2Tol.Short.Duration().Seconds(), t2Clean.Short.Duration().Seconds(), 0.05},
		{"pattern duration", t2Tol.Pattern.Duration().Seconds(), t2Clean.Pattern.Duration().Seconds(), 0.05},
	} {
		if !within(cmp.got, cmp.want, cmp.tol) {
			t.Errorf("%s: tolerant %.0f vs clean %.0f exceeds %.0f%% tolerance",
				cmp.name, cmp.got, cmp.want, cmp.tol*100)
		}
	}
	if t2Tol.Short.Records() != t2Clean.Short.Records()-shortStats.Quarantined {
		t.Errorf("short records %d + quarantined %d != clean %d",
			t2Tol.Short.Records(), shortStats.Quarantined, t2Clean.Short.Records())
	}
}

// cancelAfterWriter cancels a context once a marker string flows
// through it, so a RunAll can be interrupted at a deterministic point.
type cancelAfterWriter struct {
	w      io.Writer
	marker string
	cancel context.CancelFunc
}

func (c *cancelAfterWriter) Write(p []byte) (int, error) {
	if strings.Contains(string(p), c.marker) {
		c.cancel()
	}
	return c.w.Write(p)
}

// TestRunAllContextCancelMidRun cancels a run once Table 2's section is
// written. Dispatch stops there, give or take the task a worker already
// held, so the completed steps are a prefix of the dispatch order (not
// of paper order). Every completed step's section is in the text, in
// paper order, and skipped steps wrote none.
func TestRunAllContextCancelMidRun(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	var sb strings.Builder
	w := &cancelAfterWriter{w: &sb, marker: "== Table 2 ==", cancel: cancel}
	r := runner()
	rep, err := r.RunAllContext(ctx, w)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("want context.Canceled, got %v", err)
	}
	if rep == nil {
		t.Fatal("cancelled run must still return the partial report")
	}
	done := rep.Completed()
	if done < 2 || done == len(rep.Steps) {
		t.Errorf("completed %d of %d steps, want at least Table 2 and not all", done, len(rep.Steps))
	}
	for n, i := range stepOrder(r, stepTable) {
		want := StepSkipped
		if n < done {
			want = StepCompleted
		}
		if st := rep.Steps[i]; st.State != want {
			t.Errorf("dispatch #%d %q = %v, want %v (completed steps must be a dispatch-order prefix)",
				n, st.Name, st.State, want)
		}
	}
	text, last := sb.String(), -1
	for _, st := range rep.Steps {
		at := strings.Index(text, "\n== "+st.Name+" ==\n")
		if (at >= 0) != (st.State == StepCompleted) {
			t.Errorf("step %q is %v but its section is at %d", st.Name, st.State, at)
		}
		if at >= 0 && at < last {
			t.Errorf("section %q is out of paper order", st.Name)
		}
		last = max(last, at)
	}
	if rep.Figure1.EndRatio == 0 {
		t.Error("completed Figure 1 result missing from partial report")
	}
	var sum strings.Builder
	rep.WriteStepSummary(&sum)
	if !strings.Contains(sum.String(), "skipped") || !strings.Contains(sum.String(), "completed") {
		t.Errorf("step summary missing states:\n%s", sum.String())
	}
}

func TestRunAllStepsLedgerComplete(t *testing.T) {
	rep, err := runner().RunAll(io.Discard)
	if err != nil {
		t.Fatal(err)
	}
	if got := rep.Completed(); got != len(rep.Steps) || got == 0 {
		t.Errorf("completed %d of %d steps", got, len(rep.Steps))
	}
}

// TestRunFileStreamsObservers reads one log file both ways RunFile
// can: the §4 steps alone stream it through their observers and never
// materialize it; with Table 3 added, the file is decoded into the
// shared slice and each step folds its own. The §4 sections, their
// results and their ledger rows must be the same bytes and values.
func TestRunFileStreamsObservers(t *testing.T) {
	cfg := smallConfig()
	recs, err := NewRunner(cfg).ShortTermRecords()
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "short.cdnc")
	var buf bytes.Buffer
	w := logfmt.NewChunkWriter(&buf, logfmt.ChunkConfig{})
	for i := range recs {
		if err := w.Write(&recs[i]); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, buf.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}

	run := func(keys ...string) (*Runner, *Report, string) {
		t.Helper()
		r := NewRunner(cfg)
		var sb strings.Builder
		rep, st, err := r.RunFile(context.Background(), &sb, path, keys...)
		if err != nil {
			t.Fatal(err)
		}
		if st.Records != int64(len(recs)) || st.Quarantined != 0 {
			t.Fatalf("read %d records (%d quarantined), wrote %d", st.Records, st.Quarantined, len(recs))
		}
		return r, rep, sb.String()
	}
	sr, streamed, streamedText := run("fig4", "table2", "fig3")
	mr, materialized, materializedText := run("table2", "fig3", "fig4", "table3")
	if sr.short.recs != nil || sr.pattern.recs != nil {
		t.Error("the §4 steps alone materialized the file")
	}
	if len(mr.short.recs) != len(recs) || &mr.short.recs[0] != &mr.pattern.recs[0] {
		t.Error("with Table 3 selected, both datasets must share one decoded slice")
	}

	titles := []string{"Table 2", "Figure 3 and §4 request/response types", "Figure 4 and §4 cacheability"}
	var want string
	for i, title := range titles {
		want += section(t, materializedText, title)
		got, mat := streamed.Steps[i], materialized.Steps[i]
		if got.Name != title || got.State != StepCompleted || got.Records != mat.Records || got.Bytes != mat.Bytes {
			t.Errorf("streamed ledger row %+v, materialized %+v", got, mat)
		}
	}
	if streamedText != want {
		t.Errorf("streamed §4 sections differ from the materialized ones:\n--- streamed ---\n%s\n--- materialized ---\n%s",
			streamedText, want)
	}
	if streamed.Steps[0].Records != 2*int64(len(recs)) {
		t.Errorf("Table 2 read %d records, want the file twice (%d)", streamed.Steps[0].Records, 2*len(recs))
	}
	if !reflect.DeepEqual(streamed.Figure3, materialized.Figure3) || !reflect.DeepEqual(streamed.Figure4, materialized.Figure4) {
		t.Error("streamed Figure 3/4 results differ from the materialized ones")
	}
	if strings.Contains(streamedText, "(scale ") {
		t.Errorf("Table 2 prints a scale for a file that was read, not synthesized:\n%s", streamedText)
	}
}
