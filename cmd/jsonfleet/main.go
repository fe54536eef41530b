// Jsonfleet: supervise a fault-tolerant multi-node edge fleet. It
// spawns N liveedge processes (-node-bin), fronts them with the
// internal/fleet router — consistent-hash placement, active health
// checking, bounded failover, optional tail-latency hedging — and
// publishes the front URL through the same URL-file handshake a single
// liveedge uses, so `jsonreplay -target-file` drives a fleet exactly
// as it drives one edge.
//
//	go build -o /tmp/liveedge ./cmd/liveedge
//	go run ./cmd/jsonfleet -nodes 3 -node-bin /tmp/liveedge \
//	    -url-file /tmp/fleet.url
//
// With -chaos (a timeline file, see internal/fleet/chaos) or
// -chaos-events (a seeded generated schedule), a controller disrupts
// the fleet mid-run: kill SIGKILLs a child and restart respawns it on
// the same port; pause/partition/dead go through each node's chaos
// control endpoint. Every timeline event snapshots the front's
// counters, and on SIGTERM the supervisor writes a chaos report
// (-report) with per-window hit ratios. -recover-within R turns the
// report into a gate: the settled post-repair hit ratio must be within
// R of the pre-fault ratio, or the process exits 4 — how
// `make chaos-check` asserts the fleet actually heals.
package main

import (
	"bytes"
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"net/http"
	"os"
	"os/exec"
	"os/signal"
	"path/filepath"
	"sync"
	"syscall"
	"time"

	"repro/internal/edge"
	"repro/internal/fleet"
	"repro/internal/fleet/chaos"
	"repro/internal/livechar"
	"repro/internal/obs"
	"repro/internal/serve"
)

func main() {
	var (
		nodes      = flag.Int("nodes", 3, "number of liveedge node processes")
		nodeBin    = flag.String("node-bin", "", "path to a liveedge binary (required; build with: go build -o ... ./cmd/liveedge)")
		listen     = flag.String("listen", "127.0.0.1:0", "front-tier listen address")
		adminAddr  = flag.String("admin", "127.0.0.1:0", "admin (metrics/readyz/fleetz) listen address")
		urlFile    = flag.String("url-file", "", "publish the front and admin URLs to this file once ready")
		workDir    = flag.String("work", "", "scratch directory for child URL files (default: a temp dir)")
		failover   = flag.Int("failover", 2, "max failover retries to the next ring replica (0 disables failover)")
		hedge      = flag.Bool("hedge", false, "enable tail-latency hedging (second request after the p99-derived delay)")
		probe      = flag.Duration("probe", 200*time.Millisecond, "health probe period")
		downAfter  = flag.Int("down-after", 3, "consecutive probe failures before a node leaves the ring")
		upAfter    = flag.Int("up-after", 2, "consecutive probe successes before a down node rejoins")
		faultRate  = flag.Float64("fault-rate", 0, "per-node origin fault rate passed through to liveedge")
		chaosFile  = flag.String("chaos", "", "chaos timeline file to execute against the fleet")
		chaosSeed  = flag.Int64("chaos-seed", 1, "seed for a generated timeline (-chaos-events)")
		chaosN     = flag.Int("chaos-events", 0, "generate this many seeded disruptions instead of reading -chaos")
		chaosDur   = flag.Duration("chaos-dur", 10*time.Second, "span of a generated timeline")
		reportPath = flag.String("report", "", "write the chaos report JSON here on shutdown")
		recoverTol = flag.Float64("recover-within", 0, "gate: settled hit ratio must be within this of the pre-fault ratio (0 disables; violation exits 4)")
		charOn     = flag.Bool("livechar", false, "enable each node's live characterization plane and serve the fleet-merged view on this admin's /charz")
		charWindow = flag.Duration("char-window", time.Minute, "livechar tumbling window passed through to the nodes")
	)
	flag.Parse()
	logger := obs.NewLogger(os.Stderr, obs.NewRunID(), uint64(*chaosSeed), nil).Component("jsonfleet")

	if *nodeBin == "" {
		logger.Error("-node-bin is required")
		os.Exit(2)
	}
	if *nodes < 1 {
		logger.Error("-nodes must be >= 1", "nodes", *nodes)
		os.Exit(2)
	}
	dir := *workDir
	if dir == "" {
		var err error
		dir, err = os.MkdirTemp("", "jsonfleet-*")
		if err != nil {
			logger.Error("temp dir", "err", err)
			os.Exit(1)
		}
		defer os.RemoveAll(dir)
	}

	sup := &supervisor{bin: *nodeBin, dir: dir, faultRate: *faultRate,
		livechar: *charOn, charWindow: *charWindow, children: map[string]*child{}}
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	// fatal reaps the nodes before it exits 1.
	fatal := func(msg string, args ...any) {
		logger.Error(msg, args...)
		sup.killAll()
		os.Exit(1)
	}

	// Spawn the fleet and wait for every node's handshake.
	var members []*fleet.Member
	for i := 0; i < *nodes; i++ {
		name := fmt.Sprintf("edge-%02d", i)
		c, err := sup.spawn(ctx, name, "127.0.0.1:0")
		if err != nil {
			fatal("spawning node", "node", name, "err", err)
		}
		members = append(members, &fleet.Member{
			Name: name, URL: c.edgeURL, HealthURL: c.edgeURL + "/healthz",
		})
		logger.Info("node up", "node", name, "url", c.edgeURL, "chaos", c.chaosURL)
	}

	f := fleet.New(fleet.Config{
		Probe:       *probe,
		DownAfter:   *downAfter,
		UpAfter:     *upAfter,
		MaxFailover: *failover,
		Hedge:       *hedge,
		Logger:      logger,
	}, members...)
	sup.fleet = f
	reg := obs.NewRegistry()
	inst := f.Instrument(reg)
	defer f.StartHealth()()

	// The admin mux: metrics, readyz, and /fleetz with the live
	// membership snapshot.
	health := &obs.Health{}
	adminMux := obs.AdminMux(reg, health)
	adminMux.HandleFunc("/fleetz", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		json.NewEncoder(w).Encode(map[string]any{
			"live": f.Live(), "draining": f.Draining(), "members": f.Members(),
		})
	})
	if *charOn {
		// Fleet-merged characterization: scatter to every live node's
		// /charz, gather the per-node snapshots, and merge the sketches
		// (HDR bucket sums, heavy-hitter union with absent-node error
		// bounds, time-aligned bin sums with periodicity re-detected on
		// the fleet-wide signal).
		adminMux.HandleFunc("/charz", func(w http.ResponseWriter, r *http.Request) {
			snaps, errs := sup.gatherCharz(r.Context())
			merged, err := livechar.MergeSnapshots("fleet", 1, snaps...)
			if err != nil {
				http.Error(w, fmt.Sprintf("merging node snapshots: %v (node errors: %v)", err, errs),
					http.StatusBadGateway)
				return
			}
			w.Header().Set("Content-Type", "application/json")
			enc := json.NewEncoder(w)
			enc.SetIndent("", "  ")
			enc.Encode(merged)
		})
	}
	// The front proxies every path; stopping it drains the fleet first
	// (new requests 503, the prober stops) inside a 2 s window.
	srv, err := serve.Lifecycle{
		Listen:     *listen,
		Admin:      *adminAddr,
		URLFile:    *urlFile,
		DrainGrace: 2 * time.Second,
		Handler:    f,
		AdminMux:   adminMux,
		Health:     health,
		Drain:      f.Drain,
		Log:        logger,
	}.Start()
	if err != nil {
		fatal("starting front", "err", err)
	}
	logger.Info("fleet serving", "nodes", *nodes, "failover", *failover, "hedge", *hedge)

	// Chaos: load or generate the timeline and run it concurrently with
	// the traffic the harness replays through the front.
	rec := fleet.NewRecorder(f)
	var timeline []chaos.Event
	switch {
	case *chaosFile != "":
		data, err := os.ReadFile(*chaosFile)
		if err == nil {
			timeline, err = chaos.ParseTimeline(bytes.NewReader(data))
		}
		if err != nil {
			fatal("loading timeline", "path", *chaosFile, "err", err)
		}
	case *chaosN > 0:
		names := make([]string, *nodes)
		for i := range names {
			names[i] = fmt.Sprintf("edge-%02d", i)
		}
		timeline = chaos.GenerateTimeline(*chaosSeed, names, *chaosDur, *chaosN)
		for _, ev := range timeline {
			logger.Info("generated chaos event", "event", ev.String())
		}
	}
	ctl := &chaos.Controller{
		Target:  sup,
		OnEvent: rec.Observe,
		Log:     func(format string, args ...any) { logger.Info(fmt.Sprintf(format, args...)) },
	}
	chaosErr := make(chan error, 1)
	go func() { chaosErr <- ctl.Run(ctx, timeline) }()

	<-ctx.Done()
	stop() // a second signal kills the process mid-drain
	srv.Stop()
	if err := <-chaosErr; err != nil && ctx.Err() == nil {
		fatal("chaos timeline failed", "err", err)
	}
	sup.killAll()

	rep := chaosReport{
		Schema: "repro/fleet-chaos-report/v1",
		Nodes:  *nodes, Failover: *failover, Hedge: *hedge, Timeline: timeline,
		RecoveryReport: rec.Report(*recoverTol),
	}
	if *reportPath != "" {
		data, _ := json.MarshalIndent(rep, "", "  ")
		if err := os.WriteFile(*reportPath, append(data, '\n'), 0o644); err != nil {
			logger.Error("writing report", "path", *reportPath, "err", err)
			os.Exit(1)
		}
	}
	logger.Info("fleet stopped",
		"hits", inst.Hits.Value(), "misses", inst.Misses.Value(),
		"failovers", inst.Failovers.Value(), "exhausted", inst.Exhausted.Value(),
		"hedges", inst.Hedges.Value(), "hedges_won", inst.HedgesWon.Value())
	if rc := rep.Recovery; rc != nil {
		logger.Info("recovery gate",
			"pre_ratio", fmt.Sprintf("%.3f", rc.PreRatio),
			"settled_ratio", fmt.Sprintf("%.3f", rc.SettledRatio),
			"tolerance", fmt.Sprintf("%.3f", rc.Tolerance),
			"pass", rc.Pass)
		if !rc.Pass {
			os.Exit(4)
		}
	}
}

// chaosReport is the machine-readable run summary `make chaos-check`
// asserts on: the run's shape, then the Recorder's windows and verdict.
type chaosReport struct {
	Schema   string        `json:"schema"`
	Nodes    int           `json:"nodes"`
	Failover int           `json:"failover"`
	Hedge    bool          `json:"hedge"`
	Timeline []chaos.Event `json:"timeline,omitempty"`
	fleet.RecoveryReport
}

// child is one supervised liveedge process.
type child struct {
	edgeAddr string // host:port, pinned after first start so restarts keep identity
	cmd      *exec.Cmd
	edgeURL  string
	adminURL string
	chaosURL string
}

// supervisor owns the node processes and implements chaos.Target:
// kill/restart at the process level, pause/partition/dead through each
// node's chaos control endpoint.
type supervisor struct {
	bin        string
	dir        string
	faultRate  float64
	livechar   bool
	charWindow time.Duration
	fleet      *fleet.Fleet

	mu       sync.Mutex
	children map[string]*child
}

// spawn starts (or restarts) the named node listening on addr and
// waits for its URL-file handshake.
func (s *supervisor) spawn(ctx context.Context, name, addr string) (*child, error) {
	uf := filepath.Join(s.dir, name+".url")
	os.Remove(uf)
	args := []string{
		"-serve",
		"-listen", addr,
		"-admin", "127.0.0.1:0",
		"-chaos-listen", "127.0.0.1:0",
		"-url-file", uf,
		"-fault-rate", fmt.Sprintf("%g", s.faultRate),
	}
	if s.livechar {
		args = append(args,
			"-livechar",
			"-char-window", s.charWindow.String(),
			// Periodic per-node snapshot files land in the supervisor's
			// scratch dir, not the repo: the fleet-level artifact is the
			// merged /charz view.
			"-char-snapshot", "0",
			"-out-dir", s.dir,
			"-node", name,
		)
	}
	cmd := exec.Command(s.bin, args...)
	cmd.Stderr = os.Stderr
	if err := cmd.Start(); err != nil {
		return nil, err
	}
	urls, err := edge.AwaitURLFile(ctx, uf, 15*time.Second)
	if err == nil && len(urls) < 3 {
		err = fmt.Errorf("node %s published %d URLs, want edge+admin+chaos", name, len(urls))
	}
	if err != nil {
		cmd.Process.Kill()
		cmd.Wait()
		return nil, err
	}
	c := &child{cmd: cmd, edgeURL: urls[0], adminURL: urls[1], chaosURL: urls[2]}
	c.edgeAddr = c.edgeURL[len("http://"):]
	s.mu.Lock()
	s.children[name] = c
	s.mu.Unlock()
	return c, nil
}

func (s *supervisor) get(name string) (*child, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	c := s.children[name]
	if c == nil {
		return nil, fmt.Errorf("unknown node %q", name)
	}
	return c, nil
}

// Kill SIGKILLs the node's process — no drain, no goodbye, exactly the
// failure the health checker and failover path exist for.
func (s *supervisor) Kill(name string) error {
	c, err := s.get(name)
	if err != nil {
		return err
	}
	if c.cmd == nil || c.cmd.Process == nil {
		return fmt.Errorf("node %q not running", name)
	}
	if err := c.cmd.Process.Kill(); err != nil {
		return err
	}
	c.cmd.Wait()
	c.cmd = nil
	return nil
}

// Restart respawns a killed node on its original port so its member
// URL — and its slice of the ring — stays valid.
func (s *supervisor) Restart(name string) error {
	c, err := s.get(name)
	if err != nil {
		return err
	}
	if c.cmd != nil {
		return fmt.Errorf("node %q still running", name)
	}
	nc, err := s.spawn(context.Background(), name, c.edgeAddr)
	if err != nil {
		return err
	}
	return s.fleet.UpdateMemberURL(name, nc.edgeURL, nc.edgeURL+"/healthz")
}

// Inject posts a fault mode to the node's chaos control endpoint.
func (s *supervisor) Inject(name string, mode chaos.Mode, delay time.Duration) error {
	c, err := s.get(name)
	if err != nil {
		return err
	}
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
	defer cancel()
	return chaos.InjectHTTP(ctx, http.DefaultClient, c.chaosURL, mode, delay)
}

// gatherCharz scatters to every running node's /charz and returns the
// per-node snapshots plus the errors from nodes that failed to answer
// (killed or partitioned nodes are expected casualties — the merged
// view covers whoever is alive).
func (s *supervisor) gatherCharz(ctx context.Context) ([]livechar.Snapshot, []error) {
	s.mu.Lock()
	urls := make(map[string]string, len(s.children))
	for name, c := range s.children {
		if c.cmd != nil {
			urls[name] = c.adminURL + "/charz"
		}
	}
	s.mu.Unlock()

	ctx, cancel := context.WithTimeout(ctx, 3*time.Second)
	defer cancel()
	var (
		wg    sync.WaitGroup
		out   []livechar.Snapshot
		errs  []error
		outMu sync.Mutex
	)
	for name, url := range urls {
		wg.Add(1)
		go func(name, url string) {
			defer wg.Done()
			snap, err := fetchCharz(ctx, url)
			outMu.Lock()
			defer outMu.Unlock()
			if err != nil {
				errs = append(errs, fmt.Errorf("%s: %w", name, err))
				return
			}
			out = append(out, snap)
		}(name, url)
	}
	wg.Wait()
	return out, errs
}

// fetchCharz reads one node's /charz snapshot.
func fetchCharz(ctx context.Context, url string) (livechar.Snapshot, error) {
	var snap livechar.Snapshot
	req, err := http.NewRequestWithContext(ctx, "GET", url, nil)
	if err != nil {
		return snap, err
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		return snap, err
	}
	defer resp.Body.Close()
	if err := json.NewDecoder(resp.Body).Decode(&snap); err != nil {
		return snap, fmt.Errorf("decoding /charz: %w", err)
	}
	return snap, nil
}

// killAll tears the fleet down (shutdown path).
func (s *supervisor) killAll() {
	s.mu.Lock()
	defer s.mu.Unlock()
	for _, c := range s.children {
		if c.cmd != nil && c.cmd.Process != nil {
			c.cmd.Process.Kill()
			c.cmd.Wait()
			c.cmd = nil
		}
	}
}
