package fleet

import (
	"sync"

	"repro/internal/obs"
)

// Instrumentation is the front tier's fleet_* metric bundle.
type Instrumentation struct {
	reg *obs.Registry

	// Failovers counts retries to the next ring replica after a
	// connect error or 5xx; Exhausted counts requests that failed every
	// replica in budget (answered 502).
	Failovers *obs.Counter
	Exhausted *obs.Counter
	// Hedges counts hedge requests launched; HedgesWon the hedges whose
	// response was used; HedgesWasted the ones the primary beat.
	Hedges       *obs.Counter
	HedgesWon    *obs.Counter
	HedgesWasted *obs.Counter
	// Hits/Misses tally node X-Cache verdicts as seen from the front —
	// the fleet-wide hit ratio the chaos gate asserts recovery on.
	Hits   *obs.Counter
	Misses *obs.Counter
	// NoMembers counts requests refused because the ring was empty.
	NoMembers *obs.Counter
	// Aborted counts responses cut off after their status line had gone
	// to the client, because the member failed mid-body: past the point
	// where failover can help, the client's connection is dropped.
	Aborted *obs.Counter

	mu         sync.Mutex
	memberTran map[string]*obs.Counter
}

// Instrument registers the fleet's metrics on reg and starts exporting
// per-member state gauges. Call once, before StartHealth.
func (f *Fleet) Instrument(reg *obs.Registry) *Instrumentation {
	reg.Help("fleet_failovers_total", "Requests retried on the next ring replica after a connect error or 5xx.")
	reg.Help("fleet_hedges_total", "Tail-latency hedge requests launched.")
	reg.Help("fleet_member_state", "Member health state (0=up, 1=suspect, 2=down).")
	reg.Help("fleet_member_requests_total", "Requests answered by each member, as routed by the front tier.")
	reg.Help("fleet_member_transitions_total", "Health state transitions by member and new state.")
	reg.Help("fleet_aborted_total", "Responses aborted mid-body (client connection dropped) because the member failed after its status line was relayed.")
	reg.Help("fleet_hits_total", "Node cache hits (X-Cache HIT/STALE/NEGATIVE) observed at the front tier.")
	inst := &Instrumentation{
		reg:          reg,
		Failovers:    reg.Counter("fleet_failovers_total"),
		Exhausted:    reg.Counter("fleet_exhausted_total"),
		Hedges:       reg.Counter("fleet_hedges_total"),
		HedgesWon:    reg.Counter("fleet_hedges_won_total"),
		HedgesWasted: reg.Counter("fleet_hedges_wasted_total"),
		Hits:         reg.Counter("fleet_hits_total"),
		Misses:       reg.Counter("fleet_misses_total"),
		NoMembers:    reg.Counter("fleet_no_members_total"),
		Aborted:      reg.Counter("fleet_aborted_total"),
		memberTran:   make(map[string]*obs.Counter),
	}
	f.inst = inst
	reg.GaugeFunc("fleet_members_live", func() float64 { return float64(f.ring.Len()) })
	f.mu.RLock()
	for _, name := range f.order {
		m := f.members[name]
		m.requests = reg.Counter("fleet_member_requests_total", "member", label(m.Name))
		reg.GaugeFunc("fleet_member_state", func() float64 {
			return float64(m.State())
		}, "member", label(m.Name))
	}
	f.mu.RUnlock()
	return inst
}

// transitions returns (creating) the per-member, per-state transition
// counter.
func (i *Instrumentation) transitions(name, to string) *obs.Counter {
	key := name + "\x00" + to
	i.mu.Lock()
	defer i.mu.Unlock()
	c := i.memberTran[key]
	if c == nil {
		c = i.reg.Counter("fleet_member_transitions_total", "member", label(name), "to", to)
		i.memberTran[key] = c
	}
	return c
}

// HitRatio returns the fleet-wide cache hit ratio observed since the
// given counter snapshot (hits0, misses0) — the chaos gate samples it
// per timeline window.
func (i *Instrumentation) HitRatio(hits0, misses0 int64) float64 {
	h := i.Hits.Value() - hits0
	m := i.Misses.Value() - misses0
	if h+m == 0 {
		return 0
	}
	return float64(h) / float64(h+m)
}
