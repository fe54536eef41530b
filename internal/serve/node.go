// Package serve is the edge-node process the paper's logs come from, in
// three parts. Build assembles an edge stack: the cache, a faulty origin
// behind the resilience path, instrumentation and an optional defense;
// the robustness exhibits serve through it too. Node is the process
// shell around one such stack: a request trace, /healthz, the admin mux,
// the optional live characterization plane, its run manifest and the
// logger. Lifecycle runs a data handler and an admin mux through the
// serving sequence: bind, flip ready, publish the URL file, and on stop
// drain. cmd/liveedge is a Node behind a Lifecycle; cmd/jsonfleet runs
// its front tier through the same Lifecycle.
package serve

import (
	"fmt"
	"net/http"
	"os"
	"sync"
	"time"

	"repro/internal/defend"
	"repro/internal/edge"
	"repro/internal/livechar"
	"repro/internal/logfmt"
	"repro/internal/obs"
)

// Config is one edge node. Each field is the liveedge flag named beside
// it; the zero value is a node with a fault-free origin and neither the
// defense nor the characterization plane.
type Config struct {
	FaultRate float64 // -fault-rate
	FaultSeed uint64  // -fault-seed
	Defend    bool    // -defend

	LiveChar     bool          // -livechar
	CharWindow   time.Duration // -char-window
	CharBin      time.Duration // -char-bin
	CharSnapshot time.Duration // -char-snapshot (0 disables the periodic snapshots)
	OutDir       string        // -out-dir
	Node         string        // -node (default: the run id)
}

// Stack is an assembled edge node: a Core plus the process around it.
// Handler serves the data listener; Admin, the admin listener. The Core
// is exposed so a caller can script the origin (Faulty.Brownouts) and
// report on the run.
type Stack struct {
	*Core
	Log     *obs.Logger
	Handler http.Handler   // the edge, plus /healthz
	Admin   *http.ServeMux // obs.AdminMux, plus /charz with the plane on
	Health  *obs.Health
	Char    *livechar.LiveChar // nil unless Config.LiveChar

	cfg      Config
	runID    string
	manifest *obs.Manifest
	stop     chan struct{}
	wg       sync.WaitGroup
	mu       sync.Mutex // guards seq and manifest.Steps
	seq      int
	closed   sync.Once
}

// Node builds the shipped stack (Build's zero Parts, with the fault and
// defense flags) and wraps it in the process shell. The origin answers
// every path (WildcardOrigin over the manifest-shaped JSONOrigin), so
// replayed synthetic streams see the real hit/miss mix instead of 404s.
// The node keeps no request log: a long-lived server must not grow with
// every request. With Defend the detect-and-defend admission loop fronts
// the cache, keying client state on the X-Client-Id header jsonreplay
// forwards. With LiveChar the plane taps the edge's request log, runs
// async, and writes char-<id>.json snapshots every CharSnapshot; Close
// writes the last one and the run manifest. Log writes to stderr.
func Node(cfg Config) *Stack {
	st := &Stack{runID: obs.NewRunID(), cfg: cfg, stop: make(chan struct{})}
	st.Log = obs.NewLogger(os.Stderr, st.runID, cfg.FaultSeed, nil).Component("liveedge")
	parts := Parts{FaultRate: cfg.FaultRate, FaultSeed: cfg.FaultSeed}
	if cfg.Defend {
		parts.Defend = defend.New(defend.Config{ClientIDHeader: "X-Client-Id"})
	}
	st.Core = Build(parts)
	// A long-lived node's cache is worth watching: its pull metrics keep
	// it alive as long as the registry, which is the process.
	edge.RegisterCacheMetrics(st.Registry, st.Edge.Cache)
	// A small retention window: a long-lived edge traces the most recent
	// requests, not the whole history.
	st.Edge.Trace = &obs.Trace{Limit: 64}
	st.Health = &obs.Health{}

	// /healthz rides the data listener, not the admin mux, so the fleet
	// prober shares fate with real traffic: an injected pause, partition,
	// or play-dead hits the probe exactly as it hits requests. Draining
	// (readiness off) fails the probe too, so a supervisor stops routing
	// here before the listener closes.
	mux := http.NewServeMux()
	mux.HandleFunc("/healthz", func(w http.ResponseWriter, r *http.Request) {
		if !st.Health.Ready() {
			http.Error(w, "draining", http.StatusServiceUnavailable)
			return
		}
		fmt.Fprintln(w, "ok")
	})
	mux.Handle("/", st.Edge)
	st.Handler = mux
	st.Admin = obs.AdminMux(st.Registry, st.Health)
	if cfg.LiveChar {
		st.startChar()
	}
	return st
}

// startChar wires the characterization plane: /charz, livechar_*
// metrics, the tap on the edge's request log, and the snapshot loop.
func (st *Stack) startChar() {
	node := st.cfg.Node
	if node == "" {
		node = st.runID
	}
	st.Char = livechar.New(livechar.Config{
		Window: st.cfg.CharWindow,
		Bin:    st.cfg.CharBin,
		Seed:   st.cfg.FaultSeed,
		Node:   node,
	})
	st.Char.Instrument(st.Registry)
	st.Admin.Handle("/charz", st.Char.Handler())
	// The plane sees every record first; a caller's later Log hook
	// chains after it. Once started the tap is a non-blocking channel
	// send; overflow is dropped and counted.
	st.Edge.Log = st.Char.Observe
	st.Char.Start()

	st.manifest = obs.NewManifest("liveedge", st.runID)
	st.manifest.Config = map[string]any{
		"livechar": true, "char_snapshot": st.cfg.CharSnapshot.String(),
		"char_window": st.Char.Config().Window.String(), "char_bin": st.Char.Config().Bin.String(),
	}
	if st.cfg.CharSnapshot <= 0 {
		return
	}
	st.wg.Add(1)
	go func() {
		defer st.wg.Done()
		tick := time.NewTicker(st.cfg.CharSnapshot)
		defer tick.Stop()
		for {
			select {
			case <-st.stop:
				return
			case <-tick.C:
				st.snapshot()
			}
		}
	}()
}

// snapshot writes the next char-<id>.json and books it in the manifest.
func (st *Stack) snapshot() {
	st.mu.Lock()
	defer st.mu.Unlock()
	st.seq++
	path, step, err := st.Char.WriteSnapshot(st.cfg.OutDir, st.runID, st.seq)
	if err != nil {
		st.Log.Warn("char snapshot failed", "err", err)
		return
	}
	st.manifest.Steps = append(st.manifest.Steps, step)
	st.Log.Info("char snapshot written", "path", path)
}

// Served is how many requests the edge has answered, from its request
// counters.
func (st *Stack) Served() int64 {
	o := st.Edge.Obs
	return o.GETRequests.Value() + o.POSTRequests.Value() + o.HEADRequests.Value() + o.OtherRequests.Value()
}

// Close stops the node's background work. With the plane on it drains
// the tap, writes a final snapshot so the artifact reflects the whole
// run, and closes the books with the run manifest. Call it after the
// lifecycle has stopped; later calls do nothing.
func (st *Stack) Close() {
	st.closed.Do(func() {
		close(st.stop)
		st.wg.Wait()
		if st.Char == nil {
			return
		}
		st.Char.Close()
		st.snapshot()
		st.manifest.Finish("completed")
		st.manifest.AddMetrics(st.Registry)
		if path, err := st.manifest.WriteFile(st.cfg.OutDir); err != nil {
			st.Log.Warn("writing run manifest", "err", err)
		} else {
			st.Log.Info("run manifest written", "path", path)
		}
	})
}

// AddLog chains fn after the edge's request-log hook, so the plane's tap
// (when on) still sees every record first. Call it before traffic
// arrives.
func (st *Stack) AddLog(fn func(*logfmt.Record)) {
	prev := st.Edge.Log
	st.Edge.Log = func(r *logfmt.Record) {
		if prev != nil {
			prev(r)
		}
		fn(r)
	}
}
