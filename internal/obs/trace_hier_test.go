package obs

import (
	"context"
	"strings"
	"testing"
	"time"
)

func TestTraceHierarchy(t *testing.T) {
	now := time.Date(2026, 1, 1, 0, 0, 0, 0, time.UTC)
	tr := NewTrace()
	tr.Now = func() time.Time { return now }

	root := tr.Start("RunAll")
	root.SetAttrs(Int("jobs", 4), Float("scale", 0.002))
	step := root.Child("table 2")
	ds := step.Child("synth short-term dataset")
	ds.AddRecords(500)
	now = now.Add(time.Second)
	ds.End()
	step.End()
	root.End()

	stats := tr.Spans()
	if len(stats) != 3 {
		t.Fatalf("spans = %d, want 3", len(stats))
	}
	byName := map[string]SpanStat{}
	for _, s := range stats {
		byName[s.Name] = s
	}
	r, s, d := byName["RunAll"], byName["table 2"], byName["synth short-term dataset"]
	if r.ParentID != 0 || r.Depth != 0 {
		t.Errorf("root parent/depth = %d/%d, want 0/0", r.ParentID, r.Depth)
	}
	if s.ParentID != r.ID || s.Depth != 1 {
		t.Errorf("step parent = %d (root %d), depth %d", s.ParentID, r.ID, s.Depth)
	}
	if d.ParentID != s.ID || d.Depth != 2 {
		t.Errorf("dataset parent = %d (step %d), depth %d", d.ParentID, s.ID, d.Depth)
	}
	if len(r.Attrs) != 2 || r.Attrs[0].Key != "jobs" || r.Attrs[0].Value != int64(4) {
		t.Errorf("root attrs = %+v", r.Attrs)
	}

	// The table indents by depth and sums only root spans.
	var b strings.Builder
	tr.WriteTable(&b)
	out := b.String()
	if !strings.Contains(out, "  table 2") || !strings.Contains(out, "    synth short-term dataset") {
		t.Errorf("table not indented by depth:\n%s", out)
	}
	if !strings.Contains(out, "total") || !strings.Contains(out, "1s") {
		t.Errorf("total should sum root spans only (1s):\n%s", out)
	}
}

func TestTraceRingBuffer(t *testing.T) {
	tr := &Trace{Limit: 3}
	for i := 0; i < 5; i++ {
		tr.Start(string(rune('a' + i))).End()
	}
	stats := tr.Spans()
	if len(stats) != 3 {
		t.Fatalf("retained = %d, want 3", len(stats))
	}
	// Oldest evicted first: c, d, e remain, in start order.
	names := []string{stats[0].Name, stats[1].Name, stats[2].Name}
	if names[0] != "c" || names[1] != "d" || names[2] != "e" {
		t.Errorf("retained = %v, want [c d e]", names)
	}
	if got := tr.Dropped(); got != 2 {
		t.Errorf("dropped = %d, want 2", got)
	}

	var b strings.Builder
	tr.WriteTable(&b)
	if !strings.Contains(b.String(), "2 older spans dropped") {
		t.Errorf("table missing dropped-span footer:\n%s", b.String())
	}
}

func TestTraceNilChildAndAttrs(t *testing.T) {
	var sp *Span
	if c := sp.Child("x"); c != nil {
		t.Error("nil span Child != nil")
	}
	sp.SetAttrs(String("k", "v")) // must not panic
	sp.End()
}

func TestSpanContext(t *testing.T) {
	tr := NewTrace()
	root := tr.Start("root")
	ctx := ContextWithSpan(context.Background(), root)
	if got := SpanFromContext(ctx); got != root {
		t.Fatalf("SpanFromContext = %v, want root", got)
	}
	root.End()

	// Untraced context: everything stays nil and no-op.
	if got := SpanFromContext(context.Background()); got != nil {
		t.Errorf("empty context span = %v", got)
	}

	// Nil span leaves the context unchanged.
	if ContextWithSpan(context.Background(), nil) != context.Background() {
		t.Error("ContextWithSpan(nil) allocated a new context")
	}
}
