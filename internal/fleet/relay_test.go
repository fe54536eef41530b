package fleet

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/obs"
)

// halfThenStop declares a 16 KiB body and sends the first half of it —
// more than the front's server buffers, so the front has put the status
// line on the wire by the time the rest fails to arrive.
func halfThenStop(w http.ResponseWriter) {
	w.Header().Set("Content-Length", "16384")
	w.Write(make([]byte, 8192))
	w.(http.Flusher).Flush()
}

// TestAbortAfterCommit: a member that dies mid-body, after its 200 has
// been relayed, cannot be failed over from — the client already has the
// status line. The client must see a broken response, not a short 200,
// and the abort is counted.
func TestAbortAfterCommit(t *testing.T) {
	var served atomic.Int64
	dying := http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		served.Add(1)
		w.Header().Set("X-Cache", "HIT")
		halfThenStop(w)
		panic(http.ErrAbortHandler) // drops the connection
	})
	var members []*Member
	for i := 0; i < 2; i++ {
		srv := httptest.NewServer(dying)
		t.Cleanup(srv.Close)
		members = append(members, &Member{Name: fmt.Sprintf("edge-%02d", i), URL: srv.URL})
	}
	f := New(Config{MaxFailover: 1}, members...)
	inst := f.Instrument(obs.NewRegistry())
	front := httptest.NewServer(f)
	t.Cleanup(front.Close)

	resp, err := http.Get(front.URL + "/object/1")
	if err != nil {
		t.Fatalf("GET: %v (the status line should have been relayed)", err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d, want the member's 200", resp.StatusCode)
	}
	body, err := io.ReadAll(resp.Body)
	if err == nil {
		t.Fatalf("read %d body bytes without error; a reply cut short must not read as whole", len(body))
	}
	if got := inst.Aborted.Value(); got != 1 {
		t.Errorf("fleet_aborted_total = %d, want 1", got)
	}
	if inst.Failovers.Value() != 0 || served.Load() != 1 {
		t.Errorf("%d failovers, %d member requests: nothing may be retried after the commit",
			inst.Failovers.Value(), served.Load())
	}
}

// TestDiscarded5xxReusesConn: a 5xx the front fails over from is read
// to its end before it is dropped, so the connection to that member goes
// back to the pool instead of being torn down a request.
func TestDiscarded5xxReusesConn(t *testing.T) {
	var conns, served atomic.Int64
	sick := httptest.NewUnstartedServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		served.Add(1)
		w.WriteHeader(http.StatusServiceUnavailable)
		w.Write(bytes.Repeat([]byte("unavailable "), 512)) // 6 KiB: longer than any read-ahead
	}))
	sick.Config.ConnState = func(_ net.Conn, s http.ConnState) {
		if s == http.StateNew {
			conns.Add(1)
		}
	}
	sick.Start()
	t.Cleanup(sick.Close)
	well := newTestNode(t, "edge-01")
	f := New(Config{MaxFailover: 1}, &Member{Name: "edge-00", URL: sick.URL}, well.member())
	front := httptest.NewServer(f)
	t.Cleanup(front.Close)

	for i := 0; i < 40; i++ {
		if resp, _ := get(t, front.URL+fmt.Sprintf("/object/%d", i)); resp.StatusCode != http.StatusOK {
			t.Fatalf("GET /object/%d = %d, want 200 via failover", i, resp.StatusCode)
		}
	}
	if served.Load() < 5 {
		t.Fatalf("the sick member saw %d requests; it owned no keys?", served.Load())
	}
	// One, give or take a request that found the connection still on its
	// way back to the pool. Undrained, it is one a request.
	if conns.Load() > 2 {
		t.Errorf("%d connections for %d sequential requests to the sick member, want them reused",
			conns.Load(), served.Load())
	}
}

// closeSpy is a response body that reports being closed.
type closeSpy struct {
	io.Reader
	closed chan struct{}
}

func (c *closeSpy) Close() error { close(c.closed); return nil }

// roundTripFunc adapts a function to http.RoundTripper.
type roundTripFunc func(*http.Request) (*http.Response, error)

func (fn roundTripFunc) RoundTrip(r *http.Request) (*http.Response, error) { return fn(r) }

// TestHedgeLoserReleased: the leg that loses a hedge race is cancelled
// when the winner is chosen, and if its answer arrives all the same —
// the race this test stages — the body is closed by the leg itself. No
// goroutine is left behind.
func TestHedgeLoserReleased(t *testing.T) {
	loserBody := &closeSpy{Reader: strings.NewReader("late"), closed: make(chan struct{})}
	var calls atomic.Int64
	cancelled := make(chan time.Time, 1)
	transport := roundTripFunc(func(r *http.Request) (*http.Response, error) {
		resp := &http.Response{StatusCode: http.StatusOK, Header: http.Header{}, Body: io.NopCloser(strings.NewReader("won"))}
		if calls.Add(1) == 1 { // the primary: answers only once it has lost
			<-r.Context().Done()
			cancelled <- time.Now()
			resp.Body = loserBody
		}
		return resp, nil
	})
	f := New(Config{Hedge: true, HedgeMin: 5 * time.Millisecond, Transport: transport},
		&Member{Name: "edge-00", URL: "http://node0.invalid"},
		&Member{Name: "edge-01", URL: "http://node1.invalid"})
	inst := f.Instrument(obs.NewRegistry())

	before := runtime.NumGoroutine()
	w := httptest.NewRecorder()
	f.ServeHTTP(w, httptest.NewRequest(http.MethodGet, "http://bench.invalid/object/1", nil))
	returned := time.Now()
	if w.Code != http.StatusOK || w.Body.String() != "won" {
		t.Fatalf("hedged GET = %d %q, want the hedge's 200", w.Code, w.Body.String())
	}
	if inst.Hedges.Value() != 1 || inst.HedgesWon.Value() != 1 {
		t.Errorf("hedges launched %d won %d, want 1 and 1", inst.Hedges.Value(), inst.HedgesWon.Value())
	}
	select {
	case at := <-cancelled:
		// At the decision — not when its deadline (5 s) runs out.
		if late := at.Sub(returned); late > time.Second {
			t.Errorf("the losing leg was cancelled %v after ServeHTTP returned, want at the decision", late)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("the losing leg was never cancelled")
	}
	select {
	case <-loserBody.closed:
	case <-time.After(2 * time.Second):
		t.Fatal("the losing leg's body was never closed")
	}
	deadline := time.Now().Add(2 * time.Second)
	for runtime.NumGoroutine() > before {
		if time.Now().After(deadline) {
			t.Fatalf("%d goroutines after the request, %d before it", runtime.NumGoroutine(), before)
		}
		time.Sleep(time.Millisecond)
	}
}

// TestOversizedRequestBody: an upload over the limit is refused whole
// with 413. Forwarding the part that fits, as if it were the upload,
// would hand the member a different request from the one the client
// made. Neither a declared nor an undeclared length gets through.
func TestOversizedRequestBody(t *testing.T) {
	node := newTestNode(t, "edge-00")
	f := New(Config{}, node.member())
	f.maxBody = 16
	f.Instrument(obs.NewRegistry())

	upload := strings.Repeat("x", 17)
	bodies := map[string]io.Reader{
		"declared length":   strings.NewReader(upload),
		"undeclared length": io.MultiReader(strings.NewReader(upload)), // a type NewRequest cannot size
		"within the limit":  strings.NewReader(upload[:16]),
	}
	for name, body := range bodies {
		w := httptest.NewRecorder()
		f.ServeHTTP(w, httptest.NewRequest(http.MethodPost, "http://bench.invalid/ingest", body))
		want := http.StatusRequestEntityTooLarge
		if name == "within the limit" {
			want = http.StatusOK
		}
		if w.Code != want {
			t.Errorf("%s: status %d, want %d", name, w.Code, want)
		}
	}
	if got := node.hits.Load(); got != 1 {
		t.Errorf("the member served %d requests, want only the one within the limit", got)
	}
	if got := f.Members()[0].Requests; got != 1 {
		t.Errorf("fleet_member_requests_total = %d, want 1: a refused upload is no member's request", got)
	}
}

// TestFrontAllocs pins the front's allocations a request over a stub
// transport, so that a header copy that starts allocating a value, or a
// body that gets buffered again, fails a test and not only a benchmark.
// The figure includes the test's own: 7 for the ResponseRecorder and 8
// for the stub's response.
func TestFrontAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector changes allocation counts")
	}
	const measured = 29
	f, r := stubFront(600)
	got := testing.AllocsPerRun(200, func() {
		f.ServeHTTP(httptest.NewRecorder(), r)
	})
	if got > measured {
		t.Errorf("%v allocations a request, want ≤ %d", got, measured)
	}
}

// TestMemberURLPathPrefix: a member URL may carry a path; the client's
// path and query are appended to it, escaping kept as the client sent it.
func TestMemberURLPathPrefix(t *testing.T) {
	var got atomic.Value
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		got.Store(r.RequestURI)
	}))
	t.Cleanup(srv.Close)
	f := New(Config{}, &Member{Name: "edge-00", URL: srv.URL + "/pop1"})
	f.ServeHTTP(httptest.NewRecorder(), httptest.NewRequest(http.MethodGet, "http://bench.invalid/a%2Fb/c?x=1", nil))
	if want := "/pop1/a%2Fb/c?x=1"; got.Load() != want {
		t.Errorf("the member was asked for %v, want %q", got.Load(), want)
	}
}

// TestOneDeadlinePerAttempt: an attempt's deadline is Config.Timeout and
// it spans the body — a member that sends its headers and then stalls is
// cut off by it, with nothing else (no client timeout) in play.
func TestOneDeadlinePerAttempt(t *testing.T) {
	stall := make(chan struct{})
	t.Cleanup(func() { close(stall) })
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		halfThenStop(w)
		select {
		case <-stall:
		case <-r.Context().Done():
		}
	}))
	t.Cleanup(srv.Close)
	f := New(Config{Timeout: 100 * time.Millisecond}, &Member{Name: "edge-00", URL: srv.URL})
	inst := f.Instrument(obs.NewRegistry())
	front := httptest.NewServer(f)
	t.Cleanup(front.Close)

	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	req, _ := http.NewRequestWithContext(ctx, http.MethodGet, front.URL+"/object/1", nil)
	start := time.Now()
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatalf("GET: %v", err)
	}
	_, err = io.ReadAll(resp.Body)
	resp.Body.Close()
	if took := time.Since(start); err == nil || took > 2*time.Second {
		t.Fatalf("stalled body: err %v after %v, want the 100ms deadline to cut it", err, took)
	}
	if inst.Aborted.Value() != 1 {
		t.Errorf("fleet_aborted_total = %d, want 1", inst.Aborted.Value())
	}
}
