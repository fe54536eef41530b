package fleet

import (
	"context"
	"net/http"
	"sync"
	"time"
)

// This file is the fleet's active health checker: a single goroutine
// probes every member's HealthURL each Config.Probe period and drives
// the three-state machine
//
//	up --SuspectAfter consecutive failures--> suspect
//	suspect --DownAfter total consecutive failures--> down (leaves ring)
//	down --UpAfter consecutive successes--> up (rejoins ring)
//
// Ring membership follows the verdicts, which is the rebalancing: a
// down member's keyspace slice remaps to its ring successors, and
// remaps back when it rejoins. Probes for all members run concurrently
// within a tick so one hung node (ProbeTimeout) cannot delay detection
// of another.

// StartHealth launches the background health checker. It returns
// immediately; call Drain (or the returned stop function) to stop it.
// Members with an empty HealthURL are pinned up and never probed.
func (f *Fleet) StartHealth() (stop func()) {
	probeClient := &http.Client{
		Timeout: f.cfg.ProbeTimeout,
		// Probes must see the node's state now, not a pooled connection's
		// past: keep-alives off so a killed node fails its next probe.
		Transport: &http.Transport{DisableKeepAlives: true},
	}
	f.checkerStarted.Store(true)
	go func() {
		defer close(f.checkerDone)
		tick := time.NewTicker(f.cfg.Probe)
		defer tick.Stop()
		for {
			select {
			case <-f.checkerStop:
				return
			case <-tick.C:
				f.probeAll(probeClient)
			}
		}
	}()
	return f.stopHealth
}

// stopHealth stops the checker goroutine, if StartHealth launched one,
// and waits for it to exit.
func (f *Fleet) stopHealth() {
	f.checkerCancel.Do(func() {
		close(f.checkerStop)
		if f.checkerStarted.Load() {
			<-f.checkerDone
		}
	})
}

// probeAll probes every member concurrently and applies the verdicts.
func (f *Fleet) probeAll(client *http.Client) {
	names := f.memberNames()
	var wg sync.WaitGroup
	for _, name := range names {
		f.mu.RLock()
		m := f.members[name]
		f.mu.RUnlock()
		if m == nil || m.HealthURL == "" {
			continue
		}
		wg.Add(1)
		go func(m *Member) {
			defer wg.Done()
			f.observeProbe(m, probe(client, m.HealthURL))
		}(m)
	}
	wg.Wait()
}

// probe performs one health check: any 200 within the timeout is
// healthy.
func probe(client *http.Client, url string) bool {
	ctx, cancel := context.WithTimeout(context.Background(), client.Timeout)
	defer cancel()
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, url, nil)
	if err != nil {
		return false
	}
	resp, err := client.Do(req)
	if err != nil {
		return false
	}
	resp.Body.Close()
	return resp.StatusCode == http.StatusOK
}

// observeProbe folds one probe outcome into the member's state machine
// and rebalances the ring on transitions. Serialized under f.mu so
// concurrent probes of different members cannot interleave ring
// rebuilds.
func (f *Fleet) observeProbe(m *Member, ok bool) {
	f.mu.Lock()
	defer f.mu.Unlock()
	prev := m.State()
	if ok {
		m.oks++
		m.fails = 0
		if prev != StateUp && m.oks >= f.cfg.UpAfter {
			f.transition(m, prev, StateUp)
		}
		return
	}
	m.fails++
	m.oks = 0
	switch {
	case prev == StateUp && m.fails >= f.cfg.SuspectAfter && m.fails < f.cfg.DownAfter:
		f.transition(m, prev, StateSuspect)
	case prev != StateDown && m.fails >= f.cfg.DownAfter:
		f.transition(m, prev, StateDown)
	}
}

// transition applies a state change: ring membership follows the
// state, metrics and the log record it. Caller holds f.mu.
func (f *Fleet) transition(m *Member, from, to MemberState) {
	m.state.Store(int32(to))
	switch {
	case to == StateDown:
		f.ring.Remove(m.Name)
	case to == StateUp && from == StateDown:
		f.ring.Add(m.Name)
	}
	if f.inst != nil {
		f.inst.transitions(m.Name, to.String()).Inc()
	}
	if f.cfg.Logger != nil {
		f.cfg.Logger.Info("fleet member transition",
			"member", m.Name, "from", from.String(), "to", to.String(),
			"live", f.ring.Len())
	}
}
