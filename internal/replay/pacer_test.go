package replay

import (
	"context"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/logfmt"
)

// issueTimes is a stub client that notes when each request reached it,
// by path, and answers 200 without a network.
type issueTimes struct {
	mu sync.Mutex
	at map[string][]time.Time
}

func (c *issueTimes) RoundTrip(r *http.Request) (*http.Response, error) {
	now := time.Now()
	c.mu.Lock()
	c.at[r.URL.Path] = append(c.at[r.URL.Path], now)
	c.mu.Unlock()
	return &http.Response{StatusCode: http.StatusOK, Header: http.Header{}, Body: io.NopCloser(strings.NewReader("{}"))}, nil
}

// TestPacerNeverEarly: on no path does a request leave before the
// instant the schedule intended. Lag's floor says so in the Result; the
// stub client's own clock says so without going through a histogram
// that cannot hold a negative value.
func TestPacerNeverEarly(t *testing.T) {
	const n = 300
	// Gaps on both sides of the pacer's coarse/fine boundary.
	var timeline []logfmt.Record
	var offsets []time.Duration
	var at time.Duration
	for i := 0; i < n; i++ {
		at += []time.Duration{200 * time.Microsecond, 700 * time.Microsecond, 2500 * time.Microsecond, 0}[i%4]
		offsets = append(offsets, at)
		timeline = append(timeline, recAt(at, "GET", "/t/"+strconv.Itoa(i), ""))
	}
	modes := map[string]struct {
		cfg      Config
		recs     []logfmt.Record
		intended func(i int) time.Duration
	}{
		"rate": {
			cfg:      Config{Rate: 1500},
			recs:     timeline, // the recorded gaps are ignored
			intended: func(i int) time.Duration { return time.Duration(float64(i) / 1500 * float64(time.Second)) },
		},
		"timeline": {
			cfg:      Config{Speed: 1},
			recs:     timeline,
			intended: func(i int) time.Duration { return offsets[i] - offsets[0] },
		},
	}
	for name, m := range modes {
		t.Run(name, func(t *testing.T) {
			client := &issueTimes{at: make(map[string][]time.Time)}
			m.cfg.Target = "http://stub.invalid"
			m.cfg.Client = &http.Client{Transport: client}
			m.cfg.Concurrency = 4
			res, err := Run(context.Background(), m.recs, m.cfg)
			if err != nil {
				t.Fatal(err)
			}
			if res.Offered != n || res.Lag.Count() != n {
				t.Fatalf("offered %d, %d lag samples, want %d of each", res.Offered, res.Lag.Count(), n)
			}
			if res.Lag.Min() < 0 {
				t.Errorf("Lag.Min() = %d ns", res.Lag.Min())
			}
			for i := 0; i < n; i++ {
				issued := client.at["/t/"+strconv.Itoa(i)][0]
				if early := res.Start.Add(m.intended(i)).Sub(issued); early > 0 {
					t.Fatalf("request %d left %v before its intended instant", i, early)
				}
			}
			t.Logf("lag p50 %v p99 %v max %v", res.Lag.QuantileDuration(0.5), res.Lag.QuantileDuration(0.99), time.Duration(res.Lag.Max()))
		})
	}
}

// TestPacerCancel: a cancellation in the middle of a wait, whichever
// part of it, is honoured within a few milliseconds. (Three tries a
// wait: the machine, not the pacer, can hold a thread that long once.)
func TestPacerCancel(t *testing.T) {
	cancelLatency := func(wait time.Duration) time.Duration {
		ctx, cancel := context.WithCancel(context.Background())
		var p pacer
		done := make(chan error, 1)
		go func() { done <- p.wait(ctx, time.Now().Add(wait)) }()
		time.Sleep(500 * time.Microsecond) // let the wait begin
		cancelled := time.Now()
		cancel()
		select {
		case err := <-done:
			if wait == time.Minute && err == nil {
				t.Errorf("wait of %v returned nil after cancel", wait)
			}
			return time.Since(cancelled)
		case <-time.After(2 * time.Second):
			t.Fatalf("wait of %v did not return after cancel", wait)
			return 0
		}
	}
	for _, wait := range []time.Duration{1500 * time.Microsecond, time.Minute} {
		took := cancelLatency(wait)
		for try := 1; try < 3 && took > 5*time.Millisecond; try++ {
			took = cancelLatency(wait)
		}
		if took > 5*time.Millisecond {
			t.Errorf("wait of %v returned %v after cancel, want within 5ms", wait, took)
		}
	}
}

// lateness runs n consecutive waits of d on p and returns how late each
// came back, sorted.
func lateness(tb testing.TB, p *pacer, n int, d time.Duration) []time.Duration {
	late := make([]time.Duration, n)
	for i := range late {
		until := time.Now().Add(d)
		if err := p.wait(context.Background(), until); err != nil {
			tb.Fatal(err)
		}
		if late[i] = time.Since(until); late[i] < 0 {
			tb.Fatalf("wait %d returned %v early", i, -late[i])
		}
	}
	sort.Slice(late, func(i, j int) bool { return late[i] < late[j] })
	return late
}

// TestRunSingleP: with one P the dispatcher's kernel sleep holds the
// only one there is; the run must still offer and complete every
// request.
func TestRunSingleP(t *testing.T) {
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Write([]byte("{}"))
	}))
	defer srv.Close()
	var records []logfmt.Record
	for i := 0; i < 200; i++ {
		records = append(records, recAt(0, "GET", "/a", ""))
	}
	offered := func() int64 {
		res, err := Run(context.Background(), records, Config{Target: srv.URL, Rate: 2000, Concurrency: 2})
		if err != nil {
			t.Fatal(err)
		}
		if res.Sent != res.Offered || res.Errors != 0 {
			t.Fatalf("sent %d of %d offered, %d errors", res.Sent, res.Offered, res.Errors)
		}
		return res.Offered
	}
	want := offered()
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	if got := offered(); got != want {
		t.Errorf("offered %d with GOMAXPROCS 1, %d without", got, want)
	}
}

// TestTruncatedBodyIsAnError: a response that loses its connection
// after the status line is an error, with no status entry — not a 200
// and a latency sample.
func TestTruncatedBodyIsAnError(t *testing.T) {
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Length", "100")
		w.Write([]byte("0123456789"))
		w.(http.Flusher).Flush()
		conn, _, err := w.(http.Hijacker).Hijack()
		if err == nil {
			conn.(*net.TCPConn).SetLinger(0)
			conn.Close()
		}
	}))
	defer srv.Close()
	res, err := Run(context.Background(), []logfmt.Record{recAt(0, "GET", "/a", "")}, Config{Target: srv.URL})
	if err != nil {
		t.Fatal(err)
	}
	if res.Errors != 1 || res.MeasuredErrors != 1 {
		t.Errorf("errors %d, measured errors %d, want 1 and 1", res.Errors, res.MeasuredErrors)
	}
	if len(res.Status) != 0 {
		t.Errorf("status tally %v, want none: the reply was not whole", res.Status)
	}
}
