package obs

import (
	"fmt"
	"sort"
	"strings"
	"sync"
)

// metricKind discriminates the exposition type of a family.
type metricKind uint8

const (
	kindCounter metricKind = iota
	kindGauge
	kindSummary
)

func (k metricKind) String() string {
	switch k {
	case kindCounter:
		return "counter"
	case kindGauge:
		return "gauge"
	default:
		return "summary"
	}
}

// series is one labeled child of a family: exactly one of the value
// fields is set.
type series struct {
	labels []string // sorted key/value pairs, flattened
	c      *Counter
	g      *Gauge
	hdr    *HDRHistogram
	cfn    func() int64
	gfn    func() float64
}

// family groups all series sharing a metric name.
type family struct {
	name   string
	kind   metricKind
	help   string
	series []*series
	byKey  map[string]*series
}

// registryState is the storage shared by a Registry and all children
// derived via With.
type registryState struct {
	mu       sync.Mutex
	families map[string]*family
}

// Registry is a named collection of metrics. Metric accessors are
// get-or-create: asking twice for the same name and label set returns
// the same metric, so hot paths should resolve their metrics once and
// hold the pointers. With derives a child registry whose metrics carry
// additional fixed labels while sharing the parent's storage (and thus
// its exposition). A Registry is safe for concurrent use; a nil
// *Registry is not usable (callers gate instrumentation on non-nil).
type Registry struct {
	state *registryState
	base  []string // label pairs applied to everything created here
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{state: &registryState{families: make(map[string]*family)}}
}

// With returns a child registry that adds the given label pairs
// ("key", "value", ...) to every metric created through it. The child
// shares the parent's storage: WritePrometheus on either exposes both.
func (r *Registry) With(labels ...string) *Registry {
	if len(labels)%2 != 0 {
		panic("obs: With needs key/value label pairs")
	}
	base := make([]string, 0, len(r.base)+len(labels))
	base = append(base, r.base...)
	base = append(base, labels...)
	return &Registry{state: r.state, base: base}
}

// Help sets the HELP text emitted for the named metric family.
func (r *Registry) Help(name, text string) {
	st := r.state
	st.mu.Lock()
	defer st.mu.Unlock()
	if f, ok := st.families[name]; ok {
		f.help = text
	} else {
		// Remember the help for a family registered later.
		st.families[name] = &family{name: name, help: text, kind: 0xff, byKey: map[string]*series{}}
	}
}

// Counter returns the counter with the given name and label pairs,
// creating it on first use. Panics if the name is already registered
// with a different kind.
func (r *Registry) Counter(name string, labels ...string) *Counter {
	s := r.getOrCreate(name, kindCounter, nil, labels, func() *series {
		return &series{c: &Counter{}}
	})
	return s.c
}

// Gauge returns the gauge with the given name and label pairs, creating
// it on first use.
func (r *Registry) Gauge(name string, labels ...string) *Gauge {
	s := r.getOrCreate(name, kindGauge, nil, labels, func() *series {
		return &series{g: &Gauge{}}
	})
	return s.g
}

// HDR returns the HDRHistogram with the given name and label pairs,
// creating it with cfg on first use (cfg passed on later calls for an
// existing histogram is ignored). It is exposed as a Prometheus
// summary: one {quantile="..."} series per default quantile, plus
// _sum and _count, all scaled by cfg.Unit — the honest way to publish
// a many-thousand-bucket HDR without a bucket series explosion.
func (r *Registry) HDR(name string, cfg HDRConfig, labels ...string) *HDRHistogram {
	s := r.getOrCreate(name, kindSummary, nil, labels, func() *series {
		return &series{hdr: NewHDRHistogram(cfg)}
	})
	return s.hdr
}

// RegisterHDR registers an existing HDRHistogram under name — for
// components that own the histogram's lifecycle themselves (window
// rotation, cross-process merges) but still want summary exposition on
// /metrics. Panics if the exact name and label set is already
// registered.
func (r *Registry) RegisterHDR(name string, h *HDRHistogram, labels ...string) {
	r.getOrCreate(name, kindSummary, errDuplicate, labels, func() *series {
		return &series{hdr: h}
	})
}

// CounterFunc registers a counter whose value is pulled from fn at
// exposition time — for components that already maintain their own
// monotonic counts (e.g. edge.Cache hit/miss totals). Panics if the
// exact name and label set is already registered.
func (r *Registry) CounterFunc(name string, fn func() int64, labels ...string) {
	r.getOrCreate(name, kindCounter, errDuplicate, labels, func() *series {
		return &series{cfn: fn}
	})
}

// GaugeFunc registers a gauge whose value is pulled from fn at
// exposition time. Panics if the exact name and label set is already
// registered.
func (r *Registry) GaugeFunc(name string, fn func() float64, labels ...string) {
	r.getOrCreate(name, kindGauge, errDuplicate, labels, func() *series {
		return &series{gfn: fn}
	})
}

// errDuplicate marks accessors that must not find an existing series.
var errDuplicate = fmt.Errorf("duplicate")

func (r *Registry) getOrCreate(name string, kind metricKind, onExisting error, labels []string, mk func() *series) *series {
	if !validName(name) {
		panic(fmt.Sprintf("obs: invalid metric name %q", name))
	}
	if len(labels)%2 != 0 {
		panic(fmt.Sprintf("obs: metric %s needs key/value label pairs", name))
	}
	pairs := sortedPairs(r.base, labels)
	key := labelKey(pairs)

	st := r.state
	st.mu.Lock()
	defer st.mu.Unlock()
	f, ok := st.families[name]
	if !ok || f.kind == 0xff {
		if !ok {
			f = &family{name: name, byKey: map[string]*series{}}
			st.families[name] = f
		}
		f.kind = kind
	} else if f.kind != kind {
		panic(fmt.Sprintf("obs: metric %s already registered as %s, requested %s", name, f.kind, kind))
	}
	if s, ok := f.byKey[key]; ok {
		if onExisting != nil {
			panic(fmt.Sprintf("obs: metric %s{%s} already registered", name, key))
		}
		return s
	}
	s := mk()
	s.labels = pairs
	f.byKey[key] = s
	f.series = append(f.series, s)
	return s
}

// sortedPairs merges base and extra label pairs, sorted by key so the
// same label set always canonicalizes identically.
func sortedPairs(base, extra []string) []string {
	n := (len(base) + len(extra)) / 2
	if n == 0 {
		return nil
	}
	type kv struct{ k, v string }
	kvs := make([]kv, 0, n)
	for i := 0; i+1 < len(base); i += 2 {
		kvs = append(kvs, kv{base[i], base[i+1]})
	}
	for i := 0; i+1 < len(extra); i += 2 {
		kvs = append(kvs, kv{extra[i], extra[i+1]})
	}
	sort.SliceStable(kvs, func(i, j int) bool { return kvs[i].k < kvs[j].k })
	out := make([]string, 0, 2*len(kvs))
	for _, p := range kvs {
		if !validName(p.k) {
			panic(fmt.Sprintf("obs: invalid label name %q", p.k))
		}
		out = append(out, p.k, p.v)
	}
	return out
}

func labelKey(pairs []string) string {
	if len(pairs) == 0 {
		return ""
	}
	var b strings.Builder
	for i := 0; i+1 < len(pairs); i += 2 {
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString(pairs[i])
		b.WriteByte('=')
		b.WriteString(pairs[i+1])
	}
	return b.String()
}

// validName reports whether s is a legal Prometheus metric/label name:
// [a-zA-Z_:][a-zA-Z0-9_:]*.
func validName(s string) bool {
	if s == "" {
		return false
	}
	for i, c := range s {
		switch {
		case c >= 'a' && c <= 'z', c >= 'A' && c <= 'Z', c == '_', c == ':':
		case c >= '0' && c <= '9' && i > 0:
		default:
			return false
		}
	}
	return true
}

// familySnapshot is a race-free copy of a family's series list; the
// series contents themselves are immutable or atomic.
type familySnapshot struct {
	name   string
	kind   metricKind
	help   string
	series []*series
}

// snapshotFamilies returns a stable, name-sorted copy of the family
// list for exposition.
func (r *Registry) snapshotFamilies() []familySnapshot {
	st := r.state
	st.mu.Lock()
	fams := make([]familySnapshot, 0, len(st.families))
	for _, f := range st.families {
		if f.kind == 0xff {
			continue // help-only placeholder, never materialized
		}
		fams = append(fams, familySnapshot{
			name:   f.name,
			kind:   f.kind,
			help:   f.help,
			series: append([]*series(nil), f.series...),
		})
	}
	st.mu.Unlock()
	sort.Slice(fams, func(i, j int) bool { return fams[i].name < fams[j].name })
	return fams
}
