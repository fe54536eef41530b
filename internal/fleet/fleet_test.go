package fleet

import (
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/edge"
	"repro/internal/obs"
)

// testNode is a controllable fake edge node: it serves a JSON body
// with an X-Cache header, can be delayed, made to fail with 5xx, or
// "killed" (connections refused by closing the listener).
type testNode struct {
	name   string
	srv    *httptest.Server
	delay  atomic.Int64 // response delay, ns
	broken atomic.Bool  // answer 503
	hits   atomic.Int64
}

func newTestNode(t *testing.T, name string) *testNode {
	t.Helper()
	n := &testNode{name: name}
	mux := http.NewServeMux()
	mux.HandleFunc("/healthz", func(w http.ResponseWriter, r *http.Request) {
		if n.broken.Load() {
			w.WriteHeader(http.StatusServiceUnavailable)
			return
		}
		fmt.Fprintln(w, "ok")
	})
	mux.HandleFunc("/", func(w http.ResponseWriter, r *http.Request) {
		if d := n.delay.Load(); d > 0 {
			time.Sleep(time.Duration(d))
		}
		if n.broken.Load() {
			w.WriteHeader(http.StatusServiceUnavailable)
			return
		}
		n.hits.Add(1)
		w.Header().Set("X-Cache", "HIT")
		w.Header().Set("Content-Type", "application/json")
		fmt.Fprintf(w, `{"node":%q,"path":%q}`, n.name, r.URL.Path)
	})
	n.srv = httptest.NewServer(mux)
	t.Cleanup(n.srv.Close)
	return n
}

func (n *testNode) member() *Member {
	return &Member{Name: n.name, URL: n.srv.URL, HealthURL: n.srv.URL + "/healthz"}
}

func testFleet(t *testing.T, cfg Config, nodes ...*testNode) (*Fleet, *httptest.Server) {
	t.Helper()
	members := make([]*Member, len(nodes))
	for i, n := range nodes {
		members[i] = n.member()
	}
	f := New(cfg, members...)
	front := httptest.NewServer(f)
	t.Cleanup(front.Close)
	return f, front
}

func get(t *testing.T, url string) (*http.Response, string) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatalf("GET %s: %v", url, err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	return resp, string(body)
}

// TestRoutingAffinity: the same path always lands on the same node,
// and the X-Fleet-Node header names it.
func TestRoutingAffinity(t *testing.T) {
	nodes := []*testNode{newTestNode(t, "edge-00"), newTestNode(t, "edge-01"), newTestNode(t, "edge-02")}
	_, front := testFleet(t, Config{}, nodes...)

	owner := map[string]string{}
	for round := 0; round < 3; round++ {
		for i := 0; i < 20; i++ {
			path := fmt.Sprintf("/object/%d", i)
			resp, _ := get(t, front.URL+path)
			node := resp.Header.Get("X-Fleet-Node")
			if node == "" {
				t.Fatalf("no X-Fleet-Node header for %s", path)
			}
			if prev, ok := owner[path]; ok && prev != node {
				t.Fatalf("path %s moved %s -> %s with stable membership", path, prev, node)
			}
			owner[path] = node
		}
	}
	seen := map[string]bool{}
	for _, n := range owner {
		seen[n] = true
	}
	if len(seen) < 2 {
		t.Fatalf("all paths landed on one node: %v", owner)
	}
}

// TestRoutingRequestForms: an object lands on one node whichever way the
// request line spells it — origin-form ("GET /a") or absolute-form ("GET
// http://host/a") — and that node is the ring owner of the key the nodes
// cache it under.
func TestRoutingRequestForms(t *testing.T) {
	nodes := []*testNode{newTestNode(t, "edge-00"), newTestNode(t, "edge-01"), newTestNode(t, "edge-02")}
	f, _ := testFleet(t, Config{}, nodes...)

	for i := 0; i < 20; i++ {
		path := fmt.Sprintf("/object/%d?v=1", i)
		origin := httptest.NewRequest("GET", path, nil)
		absolute := httptest.NewRequest("GET", "http://"+origin.Host+path, nil)
		want := f.Ring().Lookup(edge.CacheKey(origin))
		for _, r := range []*http.Request{origin, absolute} {
			rec := httptest.NewRecorder()
			f.ServeHTTP(rec, r)
			if got := rec.Header().Get("X-Fleet-Node"); rec.Code != http.StatusOK || got != want {
				t.Errorf("GET %s: %d from %q, want 200 from ring owner %q", r.RequestURI, rec.Code, got, want)
			}
		}
	}
}

// TestFailoverOnConnectError: with one node's listener closed,
// requests owned by it fail over to the next replica and still
// succeed.
func TestFailoverOnConnectError(t *testing.T) {
	nodes := []*testNode{newTestNode(t, "edge-00"), newTestNode(t, "edge-01"), newTestNode(t, "edge-02")}
	f, front := testFleet(t, Config{MaxFailover: 2}, nodes...)
	reg := obs.NewRegistry()
	inst := f.Instrument(reg)

	nodes[1].srv.Close() // connection refused from now on

	for i := 0; i < 60; i++ {
		resp, body := get(t, front.URL+fmt.Sprintf("/object/%d", i))
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("GET /object/%d = %d (%s), want 200 via failover", i, resp.StatusCode, body)
		}
		if node := resp.Header.Get("X-Fleet-Node"); node == "edge-01" {
			t.Fatalf("dead node answered /object/%d", i)
		}
	}
	if inst.Failovers.Value() == 0 {
		t.Fatal("no failovers recorded; dead node owned no keys? (vanishingly unlikely)")
	}
}

// TestFailoverDisabled: the same dead node with MaxFailover 0 turns
// into 502s — the negative control the chaos gate relies on. The zero
// value disables failover (there is no default), and a negative value
// clamps to it.
func TestFailoverDisabled(t *testing.T) {
	for _, maxFailover := range []int{0, -1} {
		t.Run(fmt.Sprintf("MaxFailover=%d", maxFailover), func(t *testing.T) {
			nodes := []*testNode{newTestNode(t, "edge-00"), newTestNode(t, "edge-01"), newTestNode(t, "edge-02")}
			_, front := testFleet(t, Config{MaxFailover: maxFailover}, nodes...)

			nodes[1].srv.Close()

			errors := 0
			for i := 0; i < 60; i++ {
				resp, _ := get(t, front.URL+fmt.Sprintf("/object/%d", i))
				if resp.StatusCode == http.StatusBadGateway {
					errors++
				}
			}
			if errors == 0 {
				t.Fatal("failover disabled but no 502s: dead node never consulted")
			}
		})
	}
}

// TestFailoverOn5xx: a node answering 503 is retried on the next
// replica.
func TestFailoverOn5xx(t *testing.T) {
	nodes := []*testNode{newTestNode(t, "edge-00"), newTestNode(t, "edge-01")}
	_, front := testFleet(t, Config{MaxFailover: 1}, nodes...)

	nodes[0].broken.Store(true)
	for i := 0; i < 30; i++ {
		resp, _ := get(t, front.URL+fmt.Sprintf("/object/%d", i))
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("GET = %d, want 200 via 5xx failover", resp.StatusCode)
		}
		if node := resp.Header.Get("X-Fleet-Node"); node != "edge-01" {
			t.Fatalf("healthy response from %s, want edge-01", node)
		}
	}
}

// TestHealthTransitions: probes demote a broken node through suspect
// to down (leaving the ring), and promote it back up on recovery.
func TestHealthTransitions(t *testing.T) {
	nodes := []*testNode{newTestNode(t, "edge-00"), newTestNode(t, "edge-01"), newTestNode(t, "edge-02")}
	f, _ := testFleet(t, Config{
		Probe:        20 * time.Millisecond,
		ProbeTimeout: 100 * time.Millisecond,
		SuspectAfter: 1,
		DownAfter:    3,
		UpAfter:      2,
	}, nodes...)
	stop := f.StartHealth()
	defer stop()

	waitState := func(m *Member, want MemberState) {
		t.Helper()
		deadline := time.Now().Add(3 * time.Second)
		for time.Now().Before(deadline) {
			if m.State() == want {
				return
			}
			time.Sleep(5 * time.Millisecond)
		}
		t.Fatalf("member %s never reached %s (now %s)", m.Name, want, m.State())
	}

	f.mu.RLock()
	m := f.members["edge-01"]
	f.mu.RUnlock()

	nodes[1].broken.Store(true)
	waitState(m, StateDown)
	if f.ring.Has("edge-01") {
		t.Fatal("down member still in ring")
	}
	if f.Live() != 2 {
		t.Fatalf("Live = %d, want 2", f.Live())
	}
	// No key may route to the down member.
	for i := 0; i < 200; i++ {
		if got := f.ring.Lookup(fmt.Sprintf("/object/%d", i)); got == "edge-01" {
			t.Fatal("key routed to down member")
		}
	}

	nodes[1].broken.Store(false)
	waitState(m, StateUp)
	if !f.ring.Has("edge-01") {
		t.Fatal("recovered member not back in ring")
	}
}

// TestHedging: a slow primary is beaten by a hedge to the next
// replica; the response arrives well before the primary's delay and
// the hedge counters move.
func TestHedging(t *testing.T) {
	nodes := []*testNode{newTestNode(t, "edge-00"), newTestNode(t, "edge-01"), newTestNode(t, "edge-02")}
	f, front := testFleet(t, Config{
		Hedge:    true,
		HedgeMin: 20 * time.Millisecond,
	}, nodes...)
	reg := obs.NewRegistry()
	inst := f.Instrument(reg)

	// Find a path owned by edge-01, then make edge-01 slow.
	var path string
	for i := 0; ; i++ {
		p := fmt.Sprintf("/object/%d", i)
		if f.ring.Lookup("http://"+front.Listener.Addr().String()+p) == "edge-01" {
			path = p
			break
		}
	}
	nodes[1].delay.Store(int64(400 * time.Millisecond))

	start := time.Now()
	resp, _ := get(t, front.URL+path)
	took := time.Since(start)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("hedged GET = %d, want 200", resp.StatusCode)
	}
	if node := resp.Header.Get("X-Fleet-Node"); node == "edge-01" {
		t.Fatal("slow primary won; hedge never fired?")
	}
	if took >= 400*time.Millisecond {
		t.Fatalf("hedged request took %s, no better than the slow primary", took)
	}
	if inst.Hedges.Value() == 0 || inst.HedgesWon.Value() == 0 {
		t.Fatalf("hedge counters: launched %d won %d, want both > 0",
			inst.Hedges.Value(), inst.HedgesWon.Value())
	}
}

// TestDrain: a draining front refuses new work with 503.
func TestDrain(t *testing.T) {
	nodes := []*testNode{newTestNode(t, "edge-00")}
	f, front := testFleet(t, Config{}, nodes...)
	stop := f.StartHealth()
	defer stop()

	resp, _ := get(t, front.URL+"/object/1")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("pre-drain GET = %d", resp.StatusCode)
	}
	f.Drain()
	resp, _ = get(t, front.URL+"/object/1")
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("draining GET = %d, want 503", resp.StatusCode)
	}
	if !f.Draining() {
		t.Fatal("Draining() false after Drain")
	}
}

// TestDrainWithoutHealthChecker: Drain on a fleet whose StartHealth
// never ran has no checker to wait for and must return.
func TestDrainWithoutHealthChecker(t *testing.T) {
	f := New(Config{}, &Member{Name: "edge-00", URL: "http://127.0.0.1:0"})
	done := make(chan struct{})
	go func() {
		defer close(done)
		f.Drain()
	}()
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("Drain blocked with no health checker started")
	}
	if !f.Draining() {
		t.Fatal("Draining() false after Drain")
	}
}

// TestMembersSnapshot: snapshots carry state names and registration
// order.
func TestMembersSnapshot(t *testing.T) {
	nodes := []*testNode{newTestNode(t, "edge-00"), newTestNode(t, "edge-01")}
	f, front := testFleet(t, Config{}, nodes...)
	reg := obs.NewRegistry()
	f.Instrument(reg)
	get(t, front.URL+"/object/1")

	ms := f.Members()
	if len(ms) != 2 || ms[0].Name != "edge-00" || ms[1].Name != "edge-01" {
		t.Fatalf("snapshot order wrong: %+v", ms)
	}
	var total int64
	for _, m := range ms {
		if m.StateName != "up" {
			t.Fatalf("member %s state %q, want up", m.Name, m.StateName)
		}
		total += m.Requests
	}
	if total != 1 {
		t.Fatalf("snapshot requests total %d, want 1", total)
	}
}
