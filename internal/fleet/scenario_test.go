package fleet

import (
	"context"
	"fmt"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"

	"repro/internal/edge"
	"repro/internal/fleet/chaos"
	"repro/internal/logfmt"
	"repro/internal/obs"
	"repro/internal/replay"
	"repro/internal/serve"
	"repro/internal/stats"
)

// The availability budget of a kill/rejoin cycle; scripts/chaos-check.sh
// holds the multi-process fleet to the same numbers.
const (
	scenarioErrBudget  = 0.01
	scenarioP99SLO     = 250 * time.Millisecond
	scenarioRecoverTol = 0.10
)

// injectors adapts in-process nodes to chaos.Target: "kill" is a full
// partition (connections sever, probes fail) and "restart" heals it, so
// addresses never change.
type injectors map[string]*chaos.Injector

func (t injectors) Kill(node string) error    { t[node].Set(chaos.ModePartition, 0); return nil }
func (t injectors) Restart(node string) error { t[node].Heal(); return nil }
func (t injectors) Inject(node string, m chaos.Mode, d time.Duration) error {
	t[node].Set(m, d)
	return nil
}

// scenarioRun replays records through a fresh three-node fleet of caching
// edges while edge-01 is killed and later rejoins. It returns the replay
// result, the failover count, and the Recorder's report: the front's hit
// ratio before the kill and after the settle mark, and their verdict.
func scenarioRun(t *testing.T, records []logfmt.Record, failover bool) (res *replay.Result, failovers int64, rep RecoveryReport) {
	t.Helper()
	target := injectors{}
	members := make([]*Member, 3)
	for i := range members {
		name := fmt.Sprintf("edge-%02d", i)
		node := serve.Build(serve.Parts{
			Origin: &edge.WildcardOrigin{Latency: time.Millisecond},
			Cache:  edge.NewCache(8<<20, time.Minute, 4),
			Bare:   true,
		})
		mux := http.NewServeMux()
		mux.HandleFunc("/healthz", func(w http.ResponseWriter, r *http.Request) { fmt.Fprintln(w, "ok") })
		mux.Handle("/", node.Edge)
		target[name] = &chaos.Injector{}
		srv := httptest.NewServer(target[name].Wrap(mux))
		defer srv.Close()
		members[i] = &Member{Name: name, URL: srv.URL, HealthURL: srv.URL + "/healthz"}
	}

	cfg := Config{
		Probe:        25 * time.Millisecond,
		ProbeTimeout: 150 * time.Millisecond,
		SuspectAfter: 1,
		DownAfter:    3,
		UpAfter:      2,
		MaxFailover:  2,
	}
	if !failover {
		// The negative control: no retries, and probes too slow to evict
		// the dead node within the run — requests it owns must fail.
		cfg.MaxFailover = -1
		cfg.Probe = time.Hour
	}
	f := New(cfg, members...)
	inst := f.Instrument(obs.NewRegistry())
	defer f.StartHealth()()
	front := httptest.NewServer(f)
	defer front.Close()

	rec := NewRecorder(f)
	ctl := &chaos.Controller{Target: target, OnEvent: rec.Observe}
	ctlErr := make(chan error, 1)
	go func() {
		ctlErr <- ctl.Run(context.Background(), []chaos.Event{
			{At: 600 * time.Millisecond, Verb: "kill", Node: "edge-01"},
			{At: 1300 * time.Millisecond, Verb: "restart", Node: "edge-01"},
			{At: 1900 * time.Millisecond, Verb: "mark", Node: "settled"},
		})
	}()
	res, err := replay.Run(context.Background(), records, replay.Config{
		Target:      front.URL,
		Rate:        200,
		Duration:    2500 * time.Millisecond,
		Warmup:      200 * time.Millisecond,
		Concurrency: 32,
		Timeout:     2 * time.Second,
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := <-ctlErr; err != nil {
		t.Fatal(err)
	}
	return res, inst.Failovers.Value(), rec.Report(scenarioRecoverTol)
}

// TestKillRejoinScenario is the fleet's availability claim over real
// loopback HTTP: an open-loop replay through the front while one of three
// nodes dies and rejoins must hold the error budget, the intended-start
// p99 and the hit-ratio recovery; the same kill with failover off must
// violate the budget, or the gate tests nothing. `make chaos-check` runs
// the full-size variant over real processes.
func TestKillRejoinScenario(t *testing.T) {
	if testing.Short() {
		t.Skip("live-HTTP fleet scenario; skipped with -short")
	}
	// A skewed GET population that re-loops under the fixed-rate
	// schedule, so the caches see a hit ratio worth measuring.
	rng, zipf := stats.NewRNG(53), stats.NewZipf(150, 1.1)
	records := make([]logfmt.Record, 800)
	for i := range records {
		records[i] = logfmt.Record{
			Time:   time.Unix(int64(i), 0),
			Method: "GET",
			URL:    fmt.Sprintf("http://fleet.test/articles/%d", zipf.Sample(rng)),
			Status: 200,
		}
	}

	res, failovers, rep := scenarioRun(t, records, true)
	if res.Measured == 0 {
		t.Fatal("no measured requests")
	}
	rc := rep.Recovery
	if rc == nil {
		t.Fatalf("no recovery verdict: %+v", rep)
	}
	t.Logf("hit ratio pre-kill %.3f, settled %.3f; %d failovers; served by %v", rc.PreRatio, rc.SettledRatio, failovers, res.Node)
	if rate := res.AvailabilityErrorRate(); rate > scenarioErrBudget {
		t.Errorf("failover-on error rate %.4f exceeds budget %.2f", rate, scenarioErrBudget)
	}
	if p99 := time.Duration(res.Latency.Quantile(0.99)); p99 > scenarioP99SLO {
		t.Errorf("intended p99 %s exceeds SLO %s", p99, scenarioP99SLO)
	}
	if failovers == 0 {
		t.Error("no request failed over while edge-01 was dead")
	}
	if !rc.Pass {
		t.Errorf("hit ratio did not recover: pre-kill %.3f, settled %.3f", rc.PreRatio, rc.SettledRatio)
	}
	if len(res.Node) < 2 {
		t.Errorf("per-node breakdown too thin: %v", res.Node)
	}

	base, _, _ := scenarioRun(t, records, false)
	if rate := base.AvailabilityErrorRate(); rate <= scenarioErrBudget {
		t.Errorf("failover-off control held the budget (%.4f): the gate tests nothing", rate)
	}
}
