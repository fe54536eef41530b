package obs

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"os"
	"sort"
	"time"
)

// This file holds the two trace projections: the Chrome trace_event JSON
// document (loadable in about:tracing or https://ui.perfetto.dev) and
// the span-log entries a run manifest embeds (one object per span,
// parent ids intact) for programmatic diffing of run provenance.

// chromeEvent is one trace_event entry: a "complete" (ph=X) slice with
// microsecond timestamps relative to the earliest span.
type chromeEvent struct {
	Name string         `json:"name"`
	Ph   string         `json:"ph"`
	TS   float64        `json:"ts"`
	Dur  float64        `json:"dur"`
	PID  int            `json:"pid"`
	TID  int            `json:"tid"`
	Args map[string]any `json:"args,omitempty"`
}

// chromeDoc is the top-level JSON object trace viewers load.
type chromeDoc struct {
	TraceEvents     []chromeEvent  `json:"traceEvents"`
	DisplayTimeUnit string         `json:"displayTimeUnit"`
	OtherData       map[string]any `json:"otherData,omitempty"`
}

// WriteChromeTrace writes the retained spans as a Chrome trace_event
// JSON document. Spans become "complete" (ph=X) events; the viewer
// renders nesting by time containment within a lane (tid), so the
// exporter assigns each span a lane where its interval nests correctly —
// preferring its parent's lane — and concurrent siblings spread across
// lanes. In-flight spans export with their elapsed time so far. A nil
// trace writes an empty document.
func (t *Trace) WriteChromeTrace(w io.Writer) error {
	stats := t.Spans()
	doc := chromeDoc{TraceEvents: []chromeEvent{}, DisplayTimeUnit: "ms"}
	if d := t.Dropped(); d > 0 {
		doc.OtherData = map[string]any{"dropped_spans": d}
	}
	if len(stats) > 0 {
		doc.TraceEvents = assignLanes(stats)
	}
	enc := json.NewEncoder(w)
	return enc.Encode(&doc)
}

// WriteChromeTraceFile writes the trace_event document to a new file at
// path, the -trace-out flag of the CLIs.
func (t *Trace) WriteChromeTraceFile(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return fmt.Errorf("creating chrome trace: %w", err)
	}
	if err := errors.Join(t.WriteChromeTrace(f), f.Close()); err != nil {
		return fmt.Errorf("writing chrome trace to %s: %w", path, err)
	}
	return nil
}

// assignLanes places each span on a lane (tid) such that every lane is a
// valid containment forest: a span joins a lane only when the lane's
// innermost still-open span fully contains it. Spans prefer their
// parent's lane, so trees render nested; overlapping siblings spill onto
// fresh lanes.
func assignLanes(stats []SpanStat) []chromeEvent {
	order := make([]int, len(stats))
	for i := range order {
		order[i] = i
	}
	sort.SliceStable(order, func(a, b int) bool {
		sa, sb := stats[order[a]], stats[order[b]]
		if !sa.Start.Equal(sb.Start) {
			return sa.Start.Before(sb.Start)
		}
		return sa.ID < sb.ID
	})

	epoch := stats[order[0]].Start
	end := func(s SpanStat) time.Time { return s.Start.Add(s.Wall) }

	// Each lane holds a stack of the ends of its currently-open spans.
	type laneState struct{ open []time.Time }
	var lanes []*laneState
	laneOf := make(map[int64]int, len(stats))

	// fits pops spans that ended before start and reports whether a span
	// spanning [start, stop] can open on the lane.
	fits := func(l *laneState, start, stop time.Time) bool {
		for len(l.open) > 0 && !l.open[len(l.open)-1].After(start) {
			l.open = l.open[:len(l.open)-1]
		}
		return len(l.open) == 0 || !l.open[len(l.open)-1].Before(stop)
	}

	events := make([]chromeEvent, 0, len(stats))
	for _, i := range order {
		s := stats[i]
		start, stop := s.Start, end(s)
		lane := -1
		if p, ok := laneOf[s.ParentID]; ok && fits(lanes[p], start, stop) {
			lane = p
		}
		if lane < 0 {
			for li, l := range lanes {
				if fits(l, start, stop) {
					lane = li
					break
				}
			}
		}
		if lane < 0 {
			lanes = append(lanes, &laneState{})
			lane = len(lanes) - 1
		}
		lanes[lane].open = append(lanes[lane].open, stop)
		laneOf[s.ID] = lane

		args := map[string]any{"span_id": s.ID}
		if s.ParentID != 0 {
			args["parent_id"] = s.ParentID
		}
		if s.Records != 0 {
			args["records"] = s.Records
		}
		if s.Bytes != 0 {
			args["bytes"] = s.Bytes
		}
		if !s.Done {
			args["in_flight"] = true
		}
		for _, a := range s.Attrs {
			args[a.Key] = a.Value
		}
		events = append(events, chromeEvent{
			Name: s.Name, Ph: "X",
			TS:  float64(s.Start.Sub(epoch)) / float64(time.Microsecond),
			Dur: float64(s.Wall) / float64(time.Microsecond),
			PID: 1, TID: lane, Args: args,
		})
	}
	return events
}

// SpanLogEntry is one span as a run manifest records it.
type SpanLogEntry struct {
	ID      int64          `json:"id"`
	Parent  int64          `json:"parent,omitempty"`
	Name    string         `json:"name"`
	Start   time.Time      `json:"start"`
	WallNS  int64          `json:"wall_ns"`
	Records int64          `json:"records,omitempty"`
	Bytes   int64          `json:"bytes,omitempty"`
	Attrs   map[string]any `json:"attrs,omitempty"`
	Open    bool           `json:"in_flight,omitempty"`
}

// spanLogEntries converts the retained spans to log entries.
func (t *Trace) spanLogEntries() []SpanLogEntry {
	stats := t.Spans()
	out := make([]SpanLogEntry, len(stats))
	for i, s := range stats {
		e := SpanLogEntry{
			ID: s.ID, Parent: s.ParentID, Name: s.Name, Start: s.Start.UTC(),
			WallNS: int64(s.Wall), Records: s.Records, Bytes: s.Bytes, Open: !s.Done,
		}
		if len(s.Attrs) > 0 {
			e.Attrs = make(map[string]any, len(s.Attrs))
			for _, a := range s.Attrs {
				e.Attrs[a.Key] = a.Value
			}
		}
		out[i] = e
	}
	return out
}
