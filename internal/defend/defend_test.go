package defend

import (
	"fmt"
	"net/http"
	"net/http/httptest"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/edge"
	"repro/internal/logfmt"
	"repro/internal/obs"
)

var epoch = time.Unix(1_700_000_000, 0).UTC()

func getReq(url, remote, ua string) *http.Request {
	r := httptest.NewRequest("GET", url, nil)
	r.RemoteAddr = remote
	if ua != "" {
		r.Header.Set("User-Agent", ua)
	}
	return r
}

func TestClientRateLimit(t *testing.T) {
	d := New(Config{ClientRPS: 2, ClientBurst: 4})
	now := epoch
	r := getReq("http://a.test/v1/x", "10.0.0.1:999", "App/1.0")
	admitted := 0
	for i := 0; i < 10; i++ {
		if !d.Admit(now, r).Reject {
			admitted++
		}
	}
	if admitted != 4 {
		t.Fatalf("burst of 4 admitted %d", admitted)
	}
	// One second refills two tokens.
	now = now.Add(time.Second)
	admitted = 0
	for i := 0; i < 10; i++ {
		if !d.Admit(now, r).Reject {
			admitted++
		}
	}
	if admitted != 2 {
		t.Fatalf("refill admitted %d, want 2", admitted)
	}
	// A different client is unaffected.
	other := getReq("http://a.test/v1/x", "10.0.0.2:999", "App/1.0")
	if d.Admit(now, other).Reject {
		t.Fatal("fresh client rejected")
	}
}

// TestIPv6ClientsHaveOwnBuckets: the client key hashes the whole remote
// host, so one IPv6 client draining its bucket leaves its neighbour's
// full — cutting RemoteAddr at the first colon made both "[2001".
func TestIPv6ClientsHaveOwnBuckets(t *testing.T) {
	d := New(Config{ClientRPS: 2, ClientBurst: 4})
	a := getReq("http://a.test/v1/x", "[2001:db8::1]:443", "App/1.0")
	b := getReq("http://a.test/v1/x", "[2001:db8::2]:443", "App/1.0")
	for i := 0; i < 10; i++ {
		d.Admit(epoch, a)
	}
	if !d.Admit(epoch, a).Reject {
		t.Fatal("drained client still admitted")
	}
	admitted := 0
	for i := 0; i < 10; i++ {
		if !d.Admit(epoch, b).Reject {
			admitted++
		}
	}
	if admitted != 4 {
		t.Fatalf("second IPv6 client admitted %d of its burst of 4", admitted)
	}
}

// TestClientIDHeader: with a trusted identity header configured,
// per-client state keys on the forwarded ID, not the shared socket —
// what lets jsonreplay traffic keep its per-record identities.
func TestClientIDHeader(t *testing.T) {
	d := New(Config{ClientRPS: 1, ClientBurst: 1, ClientIDHeader: "X-Client-Id"})
	now := epoch
	mk := func(id string) *http.Request {
		r := getReq("http://a.test/v1/x", "127.0.0.1:9", "App/1.0")
		r.Header.Set("X-Client-Id", id)
		return r
	}
	if d.Admit(now, mk("00aa")).Reject {
		t.Fatal("first request rejected")
	}
	if !d.Admit(now, mk("00aa")).Reject {
		t.Fatal("same forwarded identity not rate limited")
	}
	if d.Admit(now, mk("00bb")).Reject {
		t.Fatal("distinct forwarded identity shared a bucket")
	}
	// A malformed header falls back to the socket identity.
	if d.Admit(now, mk("not-hex")).Reject {
		t.Fatal("malformed header did not fall back to a fresh socket identity")
	}
}

func TestMachineClassBucket(t *testing.T) {
	d := New(Config{MachineRPS: 1, MachineBurst: 2, ClientRPS: 1000})
	now := epoch
	rejects := 0
	for i := 0; i < 6; i++ {
		// POSTs classify machine; distinct clients bypass per-client
		// limits so only the class bucket can reject.
		r := httptest.NewRequest("POST", "http://a.test/ingest/ch1", nil)
		r.RemoteAddr = fmt.Sprintf("10.0.1.%d:1", i)
		if d.Admit(now, r).Reject {
			rejects++
		}
	}
	if rejects != 4 {
		t.Fatalf("machine bucket rejected %d of 6, want 4", rejects)
	}
	// Human-class GETs still flow.
	h := getReq("http://a.test/v1/x", "10.0.2.1:1", "Mozilla/5.0")
	if d.Admit(now, h).Reject {
		t.Fatal("human request caught by machine bucket")
	}
}

func TestCollapseLifecycle(t *testing.T) {
	d := New(Config{BustVariants: 3, BustWindow: 10 * time.Second, CollapseTTL: time.Minute})
	now := epoch
	mk := func(i int) *http.Request {
		return getReq(fmt.Sprintf("http://a.test/v1/hot?cb=%d", i), "10.0.0.9:1", "App/1.0")
	}
	// Misses below the threshold: no collapse yet.
	for i := 0; i < 2; i++ {
		r := mk(i)
		if act := d.Admit(now, r); act.CollapseKey != "" {
			t.Fatal("collapsed before threshold")
		}
		d.RecordOutcome(now, r, logfmt.CacheMiss, 200)
	}
	// Third distinct-query miss trips the collapse.
	r := mk(2)
	d.Admit(now, r)
	d.RecordOutcome(now, r, logfmt.CacheMiss, 200)
	act := d.Admit(now, mk(3))
	if act.CollapseKey != "http://a.test/v1/hot" {
		t.Fatalf("collapse key %q, want base", act.CollapseKey)
	}
	// Queryless requests never get a collapse rewrite.
	if act := d.Admit(now, getReq("http://a.test/v1/hot", "10.0.0.9:1", "App/1.0")); act.CollapseKey != "" {
		t.Error("queryless request collapsed")
	}
	// Past the TTL the collapse lifts.
	if act := d.Admit(now.Add(2*time.Minute), mk(4)); act.CollapseKey != "" {
		t.Error("collapse survived its TTL")
	}
}

func TestNegativeCache(t *testing.T) {
	d := New(Config{NegErrors: 3, NegTTL: 10 * time.Second})
	now := epoch
	r := getReq("http://a.test/v1/gone", "10.0.0.7:1", "App/1.0")
	for i := 0; i < 3; i++ {
		if act := d.Admit(now, r); act.Negative {
			t.Fatal("negative before threshold")
		}
		d.RecordOutcome(now, r, logfmt.CacheUncacheable, 404)
	}
	act := d.Admit(now, r)
	if !act.Negative || act.NegStatus != 404 {
		t.Fatalf("want negative 404, got %+v", act)
	}
	// Expires with the substrate's TTL.
	if act := d.Admit(now.Add(time.Minute), r); act.Negative {
		t.Error("negative entry survived TTL")
	}
}

func TestFanOutSuspicionAndDecay(t *testing.T) {
	d := New(Config{FanOutHosts: 2, SuspicionLimit: 2, SuspicionHalfLife: 10 * time.Second})
	now := epoch
	// One client sweeping many hosts earns suspicion past the limit.
	for i := 0; i < 8; i++ {
		r := getReq(fmt.Sprintf("http://host%d.test/v1/x", i), "10.0.0.3:1", "Bot/1.0")
		if act := d.Admit(now, r); act.Reject {
			break
		}
		d.RecordOutcome(now, r, logfmt.CacheMiss, 200)
	}
	r := getReq("http://host0.test/v1/x", "10.0.0.3:1", "Bot/1.0")
	if !d.Admit(now, r).Reject {
		t.Fatal("fan-out abuser not shed")
	}
	if d.Abusers(now) != 1 {
		t.Fatalf("Abusers = %d, want 1", d.Abusers(now))
	}
	// Suspicion decays: after several half-lives the client re-admits.
	later := now.Add(2 * time.Minute)
	if d.Admit(later, r).Reject {
		t.Fatal("abuser never earned its way back after decay")
	}
}

func TestPeriodSuspicion(t *testing.T) {
	d := New(Config{
		Periods:        map[string]time.Duration{"/poll/ch1": 30 * time.Second},
		SuspicionLimit: 3,
	})
	now := epoch
	r := getReq("http://a.test/poll/ch1", "10.0.0.5:1", "svc-01/1.0")
	// Establish the period, then hammer far off it.
	for i := 0; i < 4; i++ {
		d.RecordOutcome(now, r, logfmt.CacheMiss, 200)
		now = now.Add(30 * time.Second)
	}
	for i := 0; i < 6; i++ {
		if d.Admit(now, r).Reject {
			return // shed as abuser — the defense worked
		}
		d.RecordOutcome(now, r, logfmt.CacheMiss, 200)
		now = now.Add(2 * time.Second)
	}
	t.Fatal("off-period hammering never shed")
}

// TestDefendedEdgeBoundsCacheBust drives a cache-busting storm through
// a real HTTPEdge twice — undefended and defended — and asserts the
// defense bounds origin fetches while the undefended edge amplifies
// one-for-one.
func TestDefendedEdgeBoundsCacheBust(t *testing.T) {
	run := func(defend edge.Defense) int64 {
		var fetches atomic.Int64
		origin := countingOrigin{inner: &edge.WildcardOrigin{}, n: &fetches}
		clock := epoch
		e := &edge.HTTPEdge{
			Cache:  edge.NewCache(1<<22, time.Minute, 4),
			Origin: origin,
			Defend: defend,
			Now:    func() time.Time { return clock },
		}
		for i := 0; i < 300; i++ {
			r := getReq(fmt.Sprintf("http://a.test/v1/hot?cb=%d", i), "10.9.9.9:1", "App/1.0")
			e.ServeHTTP(httptest.NewRecorder(), r)
			clock = clock.Add(20 * time.Millisecond)
		}
		return fetches.Load()
	}
	undefended := run(nil)
	defended := run(New(Config{BustVariants: 10, ClientRPS: 1000, ClientBurst: 2000}))
	if undefended != 300 {
		t.Fatalf("undefended storm fetched %d of 300, want full amplification", undefended)
	}
	if defended > 15 {
		t.Fatalf("defended storm fetched %d times, want <= 15", defended)
	}
}

type countingOrigin struct {
	inner edge.Origin
	n     *atomic.Int64
}

func (o countingOrigin) Fetch(path string) ([]byte, string, bool, error) {
	o.n.Add(1)
	return o.inner.Fetch(path)
}

func TestInstrumentation(t *testing.T) {
	reg := obs.NewRegistry()
	d := New(Config{ClientRPS: 1, ClientBurst: 1, BustVariants: 2})
	d.Instrument(reg)
	now := epoch
	r := getReq("http://a.test/v1/x?q=1", "10.0.0.8:1", "App/1.0")
	d.Admit(now, r)
	d.RecordOutcome(now, r, logfmt.CacheMiss, 200)
	if d.Admit(now, r).Reject != true {
		t.Fatal("second burst request not rejected at ClientBurst=1")
	}
	if got := d.obs.ShedClientRate.Value(); got != 1 {
		t.Errorf("ShedClientRate = %d, want 1", got)
	}
	if d.obs.Decision.Count() < 2 {
		t.Errorf("Decision HDR recorded %d admits, want >= 2", d.obs.Decision.Count())
	}
}

// TestConcurrency exercises the mutex paths under the race detector.
func TestConcurrency(t *testing.T) {
	d := New(Config{})
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			now := epoch
			for i := 0; i < 500; i++ {
				r := getReq(fmt.Sprintf("http://h%d.test/v1/%d?q=%d", i%5, i%20, i),
					fmt.Sprintf("10.1.%d.%d:1", w, i%7), "App/1.0")
				if !d.Admit(now, r).Reject {
					d.RecordOutcome(now, r, logfmt.CacheMiss, 200)
				}
				now = now.Add(time.Millisecond)
			}
		}(w)
	}
	wg.Wait()
}

// TestRotatingIdentityBounded: an attacker minting a fresh client
// identity per request — so no entry ever looks idle — cannot grow the
// state tables past MaxClients. The hard bound must hold even when
// every entry is recent, and suspicious clients must survive the
// eviction passes that fresh harmless ones do not.
func TestRotatingIdentityBounded(t *testing.T) {
	const maxClients = 64
	d := New(Config{
		MaxClients:        maxClients,
		FanOutHosts:       2,
		SuspicionLimit:    100, // never shed: we want the state retained
		SuspicionHalfLife: time.Hour,
		ClientRPS:         1e9, ClientBurst: 1 << 30,
		MachineRPS: 1e9, MachineBurst: 1 << 30,
		HumanRPS: 1e9, HumanBurst: 1 << 30,
	})
	now := epoch

	// Mark a handful of clients suspicious via domain fan-out.
	for s := 0; s < 4; s++ {
		remote := fmt.Sprintf("10.9.0.%d:1", s)
		for h := 0; h < 5; h++ {
			r := getReq(fmt.Sprintf("http://host-%d.test/x", h), remote, "Sweep/1.0")
			d.Admit(now, r)
			d.RecordOutcome(now, r, logfmt.CacheMiss, 200)
		}
	}
	suspicious := map[string]bool{}
	d.mu.Lock()
	for k, c := range d.clients {
		if c.decayed(now, d.cfg.SuspicionHalfLife) >= 1 {
			suspicious[fmt.Sprint(k)] = true
		}
	}
	d.mu.Unlock()
	if len(suspicious) == 0 {
		t.Fatal("setup: no clients became suspicious")
	}

	// Rotation storm: 50x the table bound, every identity fresh, every
	// request within one second — the idle sweep can never fire.
	for i := 0; i < 50*maxClients; i++ {
		remote := fmt.Sprintf("172.16.%d.%d:1", i/256%256, i%256)
		r := getReq(fmt.Sprintf("http://b.test/obj?i=%d", i), remote, fmt.Sprintf("Rot/%d", i))
		now = now.Add(time.Millisecond)
		d.Admit(now, r)
		d.RecordOutcome(now, r, logfmt.CacheMiss, 404)
	}

	d.mu.Lock()
	nClients, nBases, nErrs := len(d.clients), len(d.bases), len(d.errs)
	surviving := 0
	for k, c := range d.clients {
		if suspicious[fmt.Sprint(k)] && c.decayed(now, d.cfg.SuspicionHalfLife) >= 1 {
			surviving++
		}
	}
	d.mu.Unlock()

	if nClients > maxClients {
		t.Errorf("clients table grew to %d under rotation, bound %d", nClients, maxClients)
	}
	if nBases > maxClients {
		t.Errorf("bases table grew to %d under rotation, bound %d", nBases, maxClients)
	}
	if nErrs > maxClients {
		t.Errorf("errs table grew to %d under rotation, bound %d", nErrs, maxClients)
	}
	if surviving != len(suspicious) {
		t.Errorf("only %d/%d suspicious clients survived eviction; harmless fresh entries should go first",
			surviving, len(suspicious))
	}
}
