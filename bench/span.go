package main

import (
	"bufio"
	"fmt"
	"os"
	"sync"
	"sync/atomic"
	"time"
)

// Span layers. A span's layer is its name in the trace and the lane it
// is drawn in; parentLayer gives the layer of the span that caused it.
type layer uint8

const (
	layerPhase   layer = iota // batch phases and ladder rungs; no parent
	layerClient               // client RoundTrip
	layerFront                // fleet.ServeHTTP
	layerHop                  // front → node RoundTrip
	layerEdge                 // HTTPEdge.ServeHTTP
	layerAdmit                // Defense.Admit
	layerOutcome              // Defense.RecordOutcome
	layerFetch                // Origin.Fetch
	layerTap                  // HTTPEdge.Log tap
	layerCount
)

var layerNames = [layerCount]string{
	"phase", "client", "fleet.ServeHTTP", "fleet.hop", "edge.ServeHTTP",
	"defend.Admit", "defend.RecordOutcome", "origin.Fetch", "edge.Log",
}

var parentLayer = [layerCount]layer{
	layerPhase, layerPhase, layerClient, layerFront, layerHop,
	layerEdge, layerEdge, layerEdge, layerEdge,
}

// span is one recorded interval. Times are nanoseconds since the
// recorder's epoch; req is the request the span belongs to (0 for
// phases), which is how spans of one request find each other.
type span struct {
	name       string // phase name; empty for request layers
	start, end int64
	req        uint64
	layer      layer
	node       int8 // edge node index, -1 off-node
}

// Recorder capacities: ~48 B a span, allocated once so that recording
// never allocates on the request path. A batch run records a span a
// phase; a serve run up to nine a request.
const (
	phaseSpans   = 1 << 12
	requestSpans = 1 << 21
)

// traceFileSpans bounds the Chrome trace file, which about:tracing
// stops loading comfortably beyond a few hundred thousand events.
const traceFileSpans = 100_000

// recorder is the in-bench span store. A nil *recorder is tracing off:
// every method is a no-op, so call sites need no branches.
type recorder struct {
	epoch   time.Time
	spans   []span
	next    atomic.Int64
	dropped atomic.Int64
	reqSeq  atomic.Uint64

	// inflight maps, per node, the path of each request currently inside
	// HTTPEdge.ServeHTTP to its request id: the seams that carry only a
	// path or a record (Origin.Fetch, the Log tap) look their request up
	// here, which is interval containment on that node.
	mu       sync.Mutex
	inflight []map[string]uint64
}

func newRecorder(nodes, capacity int) *recorder {
	r := &recorder{epoch: time.Now(), spans: make([]span, capacity)}
	r.inflight = make([]map[string]uint64, nodes)
	for i := range r.inflight {
		r.inflight[i] = make(map[string]uint64)
	}
	return r
}

func (r *recorder) now() int64 { return int64(time.Since(r.epoch)) }

// begin opens a span and returns its slot, or -1 when tracing is off or
// the store is full.
func (r *recorder) begin(l layer, name string, req uint64, node int) int {
	if r == nil {
		return -1
	}
	i := r.next.Add(1) - 1
	if i >= int64(len(r.spans)) {
		r.dropped.Add(1)
		return -1
	}
	r.spans[i] = span{name: name, start: r.now(), req: req, layer: l, node: int8(node)}
	return int(i)
}

func (r *recorder) end(slot int) {
	if slot >= 0 {
		r.spans[slot].end = r.now()
	}
}

// phase records fn as a named top-level span and returns its wall time.
func (r *recorder) phase(name string, fn func()) time.Duration {
	slot := r.begin(layerPhase, name, 0, -1)
	start := time.Now()
	fn()
	d := time.Since(start)
	r.end(slot)
	return d
}

func (r *recorder) nextReq() uint64 {
	if r == nil {
		return 0
	}
	return r.reqSeq.Add(1)
}

func (r *recorder) enter(node int, path string, req uint64) {
	r.mu.Lock()
	r.inflight[node][path] = req
	r.mu.Unlock()
}

func (r *recorder) leave(node int, path string, req uint64) {
	r.mu.Lock()
	if r.inflight[node][path] == req {
		delete(r.inflight[node], path)
	}
	r.mu.Unlock()
}

func (r *recorder) lookup(node int, path string) uint64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.inflight[node][path]
}

// recorded returns the finished spans. Call it once recording is over.
func (r *recorder) recorded() []span {
	if r == nil {
		return nil
	}
	n := min(r.next.Load(), int64(len(r.spans)))
	var out []span
	for _, s := range r.spans[:n] {
		if s.end > 0 {
			out = append(out, s)
		}
	}
	return out
}

// layerTimes folds the request spans into per-layer duration samples in
// microseconds. self[l] is each span's duration minus the time its
// child spans cover: a request's spans share its id, and a layer's
// children are the spans whose parentLayer is that layer.
func layerTimes(spans []span) (dur, self [layerCount][]float64) {
	var maxReq uint64
	for _, s := range spans {
		if s.req > maxReq {
			maxReq = s.req
		}
	}
	// children[req][l] is the time covered by the children of req's
	// layer-l span.
	children := make([][layerCount]int64, maxReq+1)
	for _, s := range spans {
		if s.req != 0 {
			children[s.req][parentLayer[s.layer]] += s.end - s.start
		}
	}
	for _, s := range spans {
		if s.req == 0 {
			continue
		}
		d := s.end - s.start
		dur[s.layer] = append(dur[s.layer], float64(d)/1e3)
		self[s.layer] = append(self[s.layer], float64(d-children[s.req][s.layer])/1e3)
	}
	return dur, self
}

// writeChrome writes the spans as Chrome trace_event JSON (about:tracing
// and Perfetto load it): one complete event per span, one lane per
// layer, with the request id and the causing layer as arguments.
func writeChrome(path string, spans []span) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	fmt.Fprint(w, `{"displayTimeUnit":"ms","traceEvents":[`)
	if len(spans) > traceFileSpans {
		spans = spans[:traceFileSpans]
	}
	for i, s := range spans {
		if i > 0 {
			w.WriteByte(',')
		}
		name := s.name
		if name == "" {
			name = layerNames[s.layer]
		}
		fmt.Fprintf(w, "\n"+`{"name":%q,"ph":"X","ts":%.3f,"dur":%.3f,"pid":1,"tid":%d,"args":{"req":%d,"parent":%q,"node":%d}}`,
			name, float64(s.start)/1e3, float64(s.end-s.start)/1e3, s.layer, s.req, layerNames[parentLayer[s.layer]], s.node)
	}
	fmt.Fprint(w, "\n]}\n")
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
