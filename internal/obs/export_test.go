package obs

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"
	"time"
)

// buildDeepTrace makes a 3-level tree with two concurrent step spans so
// the exporter has to spread siblings across lanes.
func buildDeepTrace() *Trace {
	now := time.Date(2026, 1, 1, 0, 0, 0, 0, time.UTC)
	tr := NewTrace()
	tr.Now = func() time.Time { return now }

	root := tr.Start("RunAll")
	stepA := root.Child("table 2")
	ds := stepA.Child("synth short-term dataset")
	ds.AddRecords(100)
	ds.AddBytes(4096)
	now = now.Add(100 * time.Millisecond)
	ds.End()
	// figure 3 overlaps table 2 without being contained by it, so the
	// exporter must give it its own lane.
	stepB := root.Child("figure 3")
	now = now.Add(50 * time.Millisecond)
	stepA.End()
	now = now.Add(50 * time.Millisecond)
	stepB.End()
	now = now.Add(10 * time.Millisecond)
	root.End()
	return tr
}

type traceDoc struct {
	TraceEvents []struct {
		Name string         `json:"name"`
		Ph   string         `json:"ph"`
		TS   float64        `json:"ts"`
		Dur  float64        `json:"dur"`
		PID  int            `json:"pid"`
		TID  int            `json:"tid"`
		Args map[string]any `json:"args"`
	} `json:"traceEvents"`
	DisplayTimeUnit string         `json:"displayTimeUnit"`
	OtherData       map[string]any `json:"otherData"`
}

func TestWriteChromeTrace(t *testing.T) {
	tr := buildDeepTrace()
	var buf bytes.Buffer
	if err := tr.WriteChromeTrace(&buf); err != nil {
		t.Fatal(err)
	}
	var doc traceDoc
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatalf("export is not valid JSON: %v\n%s", err, buf.String())
	}
	if len(doc.TraceEvents) != 4 {
		t.Fatalf("events = %d, want 4", len(doc.TraceEvents))
	}

	// Nesting depth via parent_id chains must reach 3 levels.
	id := func(v any) int64 { f, _ := v.(float64); return int64(f) }
	parents := map[int64]int64{}
	byID := map[int64]int{}
	for i, e := range doc.TraceEvents {
		if e.Ph != "X" {
			t.Errorf("event %q ph = %q, want X", e.Name, e.Ph)
		}
		sid := id(e.Args["span_id"])
		byID[sid] = i
		if p, ok := e.Args["parent_id"]; ok {
			parents[sid] = id(p)
		}
	}
	maxDepth := 0
	for sid := range byID {
		d := 0
		for p, ok := parents[sid]; ok; p, ok = parents[p] {
			d++
			sid = p
		}
		if d > maxDepth {
			maxDepth = d
		}
	}
	if maxDepth < 2 {
		t.Errorf("max parent-chain depth = %d, want >= 2 (3 levels)", maxDepth)
	}

	// Lane validity: within one tid, events must nest by time
	// containment — that is what about:tracing renders as hierarchy.
	byLane := map[int][]int{}
	for i, e := range doc.TraceEvents {
		byLane[e.TID] = append(byLane[e.TID], i)
	}
	for tid, idxs := range byLane {
		sort.Slice(idxs, func(a, b int) bool { return doc.TraceEvents[idxs[a]].TS < doc.TraceEvents[idxs[b]].TS })
		var open []float64 // stack of end timestamps
		for _, i := range idxs {
			e := doc.TraceEvents[i]
			start, stop := e.TS, e.TS+e.Dur
			for len(open) > 0 && open[len(open)-1] <= start {
				open = open[:len(open)-1]
			}
			if len(open) > 0 && open[len(open)-1] < stop {
				t.Errorf("lane %d: %q [%.0f,%.0f] overlaps its lane neighbor ending %.0f",
					tid, e.Name, start, stop, open[len(open)-1])
			}
			open = append(open, stop)
		}
	}

	// A child prefers its parent's lane when it fits, so the single
	// chain RunAll → table 2 → dataset shares one lane; the concurrent
	// sibling spills to another.
	lanes := map[string]int{}
	for _, e := range doc.TraceEvents {
		lanes[e.Name] = e.TID
	}
	if lanes["RunAll"] != lanes["table 2"] || lanes["table 2"] != lanes["synth short-term dataset"] {
		t.Errorf("nested chain split across lanes: %v", lanes)
	}
	if lanes["figure 3"] == lanes["table 2"] {
		t.Errorf("concurrent siblings share lane %d", lanes["figure 3"])
	}

	// Tallies and attrs ride along as args.
	for _, e := range doc.TraceEvents {
		if e.Name == "synth short-term dataset" {
			if id(e.Args["records"]) != 100 || id(e.Args["bytes"]) != 4096 {
				t.Errorf("dataset args = %v", e.Args)
			}
		}
	}
}

func TestWriteChromeTraceEmptyAndNil(t *testing.T) {
	var buf bytes.Buffer
	var nilTr *Trace
	if err := nilTr.WriteChromeTrace(&buf); err != nil {
		t.Fatal(err)
	}
	var doc traceDoc
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatalf("nil trace export invalid: %v", err)
	}
	if len(doc.TraceEvents) != 0 {
		t.Errorf("nil trace exported %d events", len(doc.TraceEvents))
	}
}

func TestWriteChromeTraceDropped(t *testing.T) {
	tr := &Trace{Limit: 2}
	for i := 0; i < 5; i++ {
		tr.Start("s").End()
	}
	var buf bytes.Buffer
	if err := tr.WriteChromeTrace(&buf); err != nil {
		t.Fatal(err)
	}
	var doc traceDoc
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatal(err)
	}
	if got, _ := doc.OtherData["dropped_spans"].(float64); got != 3 {
		t.Errorf("otherData.dropped_spans = %v, want 3", doc.OtherData["dropped_spans"])
	}
}

// TestWriteChromeTraceFile: the file holds the same document the writer
// streams, and an unwritable path is an error naming it.
func TestWriteChromeTraceFile(t *testing.T) {
	tr := NewTrace()
	tr.Start("root").End()
	path := filepath.Join(t.TempDir(), "t.json")
	if err := tr.WriteChromeTraceFile(path); err != nil {
		t.Fatal(err)
	}
	var want bytes.Buffer
	if err := tr.WriteChromeTrace(&want); err != nil {
		t.Fatal(err)
	}
	if got, err := os.ReadFile(path); err != nil || !bytes.Equal(got, want.Bytes()) {
		t.Errorf("file = %q (%v), want %q", got, err, want.Bytes())
	}
	bad := filepath.Join(t.TempDir(), "missing", "t.json")
	if err := tr.WriteChromeTraceFile(bad); err == nil || !strings.Contains(err.Error(), "chrome trace") {
		t.Errorf("WriteChromeTraceFile(%s) = %v, want a chrome trace error", bad, err)
	}
}

// manifestSpans embeds tr in a manifest and reads the spans back from
// its JSON, as a consumer of run-<id>.json sees them.
func manifestSpans(t *testing.T, tr *Trace) ([]SpanLogEntry, string) {
	t.Helper()
	m := NewManifest("test", "spans")
	m.AddTrace(tr)
	data, err := json.Marshal(m)
	if err != nil {
		t.Fatal(err)
	}
	var back Manifest
	if err := json.Unmarshal(data, &back); err != nil {
		t.Fatal(err)
	}
	return back.Spans, string(data)
}

// TestManifestSpans: the manifest's span tree keeps every parent link
// of a three-level trace, the per-span record tally, and marks a span
// still open at export as in flight.
func TestManifestSpans(t *testing.T) {
	tr := buildDeepTrace()
	open := tr.Start("in flight") // never ended: exports as in_flight
	defer open.End()

	entries, _ := manifestSpans(t, tr)
	if len(entries) != 5 {
		t.Fatalf("entries = %d, want 5", len(entries))
	}
	byName := map[string]SpanLogEntry{}
	for _, e := range entries {
		byName[e.Name] = e
	}
	if byName["table 2"].Parent != byName["RunAll"].ID {
		t.Error("manifest spans lost the step→root parent link")
	}
	if byName["synth short-term dataset"].Parent != byName["table 2"].ID {
		t.Error("manifest spans lost the dataset→step parent link")
	}
	if byName["synth short-term dataset"].Records != 100 {
		t.Errorf("dataset records = %d", byName["synth short-term dataset"].Records)
	}
	if !byName["in flight"].Open || byName["RunAll"].Open {
		t.Error("in_flight marks the wrong spans")
	}
}

// TestSpanLogStrings: span attributes reach the manifest under their
// own keys and types.
func TestSpanLogStrings(t *testing.T) {
	tr := NewTrace()
	sp := tr.Start("edge GET /stories")
	sp.SetAttrs(String("cache", "hit"), Bool("error", false))
	sp.End()
	_, doc := manifestSpans(t, tr)
	for _, want := range []string{`"cache":"hit"`, `"error":false`, `"name":"edge GET /stories"`} {
		if !strings.Contains(doc, want) {
			t.Errorf("manifest missing %s:\n%s", want, doc)
		}
	}
}
