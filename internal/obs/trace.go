package obs

import (
	"fmt"
	"io"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// DefaultSpanLimit is the span-retention cap applied when Trace.Limit is
// zero. Large enough that a full jsonrepro run (a few dozen spans) is
// never truncated, small enough that a per-request
// tracer on a long-lived edge cannot grow without bound.
const DefaultSpanLimit = 16384

// Trace collects hierarchical Spans: pipeline-level stages (one span per
// dataset generation, per figure, per analysis pass) that may nest —
// RunAll → materialize datasets → dataset. A nil *Trace is a valid no-op: Start
// returns a nil *Span whose methods are all no-ops, so instrumented code
// needs no nil checks at call sites. Trace is safe for concurrent use.
//
// Retention is bounded: once Limit spans are held, each new span evicts
// the oldest and increments the dropped counter, so a per-request tracer
// on a long-running edge keeps the most recent window instead of growing
// memory unboundedly.
type Trace struct {
	// Now supplies time (defaults to time.Now); tests override it.
	Now func() time.Time
	// Limit caps retained spans (0 means DefaultSpanLimit). It is read
	// when the first span starts; changes after that are ignored.
	Limit int

	mu      sync.Mutex
	limit   int     // resolved from Limit on first Start
	ring    []*Span // grows to limit, then wraps
	head    int     // index of the oldest span once the ring is full
	dropped int64
	nextID  int64
}

// NewTrace returns an empty trace with the default retention limit.
func NewTrace() *Trace { return &Trace{} }

func (t *Trace) now() time.Time {
	if t != nil && t.Now != nil {
		return t.Now()
	}
	return time.Now()
}

// Start opens a root span named name and returns it. On a nil trace it
// returns nil, which every Span method tolerates.
func (t *Trace) Start(name string) *Span { return t.start(name, nil) }

func (t *Trace) start(name string, parent *Span) *Span {
	if t == nil {
		return nil
	}
	now := t.now()
	t.mu.Lock()
	t.nextID++
	s := &Span{name: name, trace: t, parent: parent, id: t.nextID, start: now}
	if t.limit == 0 {
		t.limit = t.Limit
		if t.limit <= 0 {
			t.limit = DefaultSpanLimit
		}
	}
	if len(t.ring) < t.limit {
		t.ring = append(t.ring, s)
	} else {
		t.ring[t.head] = s
		t.head = (t.head + 1) % t.limit
		t.dropped++
	}
	t.mu.Unlock()
	return s
}

// Dropped returns how many spans have been evicted to honor the
// retention limit.
func (t *Trace) Dropped() int64 {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.dropped
}

// retained returns the held spans in start order.
func (t *Trace) retained() []*Span {
	t.mu.Lock()
	defer t.mu.Unlock()
	out := make([]*Span, 0, len(t.ring))
	out = append(out, t.ring[t.head:]...)
	out = append(out, t.ring[:t.head]...)
	return out
}

// Attr is one typed span attribute. Value is a string, int64, float64,
// or bool — the types the exporters know how to render.
type Attr struct {
	Key   string
	Value any
}

// String returns a string-valued attribute.
func String(key, value string) Attr { return Attr{key, value} }

// Int returns an integer-valued attribute.
func Int(key string, value int) Attr { return Attr{key, int64(value)} }

// Int64 returns an integer-valued attribute.
func Int64(key string, value int64) Attr { return Attr{key, value} }

// Float returns a float-valued attribute.
func Float(key string, value float64) Attr { return Attr{key, value} }

// Bool returns a boolean-valued attribute.
func Bool(key string, value bool) Attr { return Attr{key, value} }

// Span measures one pipeline stage: wall time plus optional records-
// processed and bytes-processed tallies and typed attributes. Spans form
// a tree: Child opens a nested span. All methods are safe on a nil
// receiver and for concurrent use.
type Span struct {
	name   string
	trace  *Trace
	parent *Span
	id     int64
	start  time.Time

	records atomic.Int64
	bytes   atomic.Int64
	done    atomic.Bool
	durNS   atomic.Int64

	attrMu sync.Mutex
	attrs  []Attr
}

// Child opens a span nested under s. On a nil span it returns nil, so an
// untraced pipeline stays untraced all the way down.
func (s *Span) Child(name string) *Span {
	if s == nil {
		return nil
	}
	return s.trace.start(name, s)
}

// SetAttrs attaches typed attributes to the span (see String, Int,
// Float, Bool). Later attributes with an already-set key are appended,
// not replaced; exporters emit them in insertion order.
func (s *Span) SetAttrs(attrs ...Attr) {
	if s == nil {
		return
	}
	s.attrMu.Lock()
	s.attrs = append(s.attrs, attrs...)
	s.attrMu.Unlock()
}

// AddRecords adds n to the span's records-processed tally.
func (s *Span) AddRecords(n int64) {
	if s != nil {
		s.records.Add(n)
	}
}

// AddBytes adds n to the span's bytes-processed tally.
func (s *Span) AddBytes(n int64) {
	if s != nil {
		s.bytes.Add(n)
	}
}

// End closes the span and returns its wall time. Only the first End
// takes effect; later calls return the recorded duration.
func (s *Span) End() time.Duration {
	if s == nil {
		return 0
	}
	if s.done.CompareAndSwap(false, true) {
		s.durNS.Store(int64(s.trace.now().Sub(s.start)))
	}
	return time.Duration(s.durNS.Load())
}

// depth returns how many ancestors the span has.
func (s *Span) depth() int {
	d := 0
	for p := s.parent; p != nil; p = p.parent {
		d++
	}
	return d
}

// SpanStat is a finished (or in-flight) span's summary.
type SpanStat struct {
	// ID is the span's trace-unique id (1-based, in start order).
	ID int64
	// ParentID is the parent span's id, or 0 for a root span.
	ParentID int64
	// Depth is the nesting level (0 for a root span).
	Depth int
	// Name is the stage name passed to Start or Child.
	Name string
	// Start is when the span opened.
	Start time.Time
	// Wall is the span's duration; in-flight spans report elapsed so far.
	Wall time.Duration
	// Records and Bytes are the processed-work tallies.
	Records int64
	Bytes   int64
	// Attrs are the typed attributes in insertion order.
	Attrs []Attr
	// Done reports whether End has been called.
	Done bool
}

// RecordsPerSec returns the records-processed rate, or 0 for an
// instantaneous span.
func (s SpanStat) RecordsPerSec() float64 {
	if s.Wall <= 0 {
		return 0
	}
	return float64(s.Records) / s.Wall.Seconds()
}

// Spans returns the retained spans' summaries in start order. In-flight
// spans report their elapsed time so far.
func (t *Trace) Spans() []SpanStat {
	if t == nil {
		return nil
	}
	spans := t.retained()
	if len(spans) == 0 {
		return nil
	}
	out := make([]SpanStat, len(spans))
	for i, s := range spans {
		out[i] = s.stat(t)
	}
	return out
}

func (s *Span) stat(t *Trace) SpanStat {
	wall := time.Duration(s.durNS.Load())
	done := s.done.Load()
	if !done {
		wall = t.now().Sub(s.start)
	}
	var parentID int64
	if s.parent != nil {
		parentID = s.parent.id
	}
	s.attrMu.Lock()
	attrs := append([]Attr(nil), s.attrs...)
	s.attrMu.Unlock()
	return SpanStat{
		ID: s.id, ParentID: parentID, Depth: s.depth(), Name: s.name,
		Start: s.start, Wall: wall, Records: s.records.Load(), Bytes: s.bytes.Load(),
		Attrs: attrs, Done: done,
	}
}

// WriteTable writes the per-stage span summary as an aligned text table:
// stage (indented by nesting depth), wall time, records, records/sec,
// bytes. Zero tallies render as "-". The total row sums root spans only,
// so nested stages are not double-counted. A nil trace writes nothing.
func (t *Trace) WriteTable(w io.Writer) {
	stats := t.Spans()
	if len(stats) == 0 {
		return
	}
	nameW := len("stage")
	for _, s := range stats {
		if n := len(s.Name) + 2*s.Depth; n > nameW {
			nameW = n
		}
	}
	var total time.Duration
	fmt.Fprintf(w, "%-*s  %10s  %10s  %12s  %12s\n", nameW, "stage", "wall", "records", "records/sec", "bytes")
	for _, s := range stats {
		if s.ParentID == 0 {
			total += s.Wall
		}
		fmt.Fprintf(w, "%-*s  %10s  %10s  %12s  %12s\n", nameW,
			strings.Repeat("  ", s.Depth)+s.Name,
			s.Wall.Round(time.Millisecond),
			dash(s.Records, func(v int64) string { return fmt.Sprintf("%d", v) }),
			dashF(s.RecordsPerSec()),
			dash(s.Bytes, func(v int64) string { return fmt.Sprintf("%d", v) }))
	}
	fmt.Fprintf(w, "%-*s  %10s\n", nameW, "total", total.Round(time.Millisecond))
	t.mu.Lock()
	dropped, limit := t.dropped, t.limit
	t.mu.Unlock()
	if dropped > 0 {
		fmt.Fprintf(w, "(%d older spans dropped to honor the %d-span retention limit)\n", dropped, limit)
	}
}

func dash(v int64, f func(int64) string) string {
	if v == 0 {
		return "-"
	}
	return f(v)
}

func dashF(v float64) string {
	if v == 0 {
		return "-"
	}
	return fmt.Sprintf("%.0f", v)
}
