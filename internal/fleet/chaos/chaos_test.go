package chaos

import (
	"context"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"slices"
	"strings"
	"sync"
	"testing"
	"time"
)

func okHandler() http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		fmt.Fprintln(w, "ok")
	})
}

func TestInjectorModes(t *testing.T) {
	var in Injector
	srv := httptest.NewServer(in.Wrap(okHandler()))
	defer srv.Close()

	// ok: passes through.
	resp, err := http.Get(srv.URL)
	if err != nil || resp.StatusCode != http.StatusOK {
		t.Fatalf("ok mode: %v %v", resp, err)
	}
	resp.Body.Close()

	// dead: 503.
	in.Set(ModeDead, 0)
	resp, err = http.Get(srv.URL)
	if err != nil || resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("dead mode: %v %v", resp, err)
	}
	resp.Body.Close()

	// pause: response delayed.
	in.Set(ModePause, 80*time.Millisecond)
	start := time.Now()
	resp, err = http.Get(srv.URL)
	if err != nil || resp.StatusCode != http.StatusOK {
		t.Fatalf("pause mode: %v %v", resp, err)
	}
	resp.Body.Close()
	if took := time.Since(start); took < 80*time.Millisecond {
		t.Fatalf("pause mode answered in %s, want >= 80ms", took)
	}

	// partition: transport-level error, no HTTP response.
	in.Set(ModePartition, 0)
	if _, err = http.Get(srv.URL); err == nil {
		t.Fatal("partition mode produced a clean HTTP response, want a transport error")
	}

	// heal: back to normal.
	in.Heal()
	resp, err = http.Get(srv.URL)
	if err != nil || resp.StatusCode != http.StatusOK {
		t.Fatalf("after heal: %v %v", resp, err)
	}
	resp.Body.Close()
}

func TestControlHandler(t *testing.T) {
	var in Injector
	ctl := httptest.NewServer(in.ControlHandler())
	defer ctl.Close()

	if err := InjectHTTP(context.Background(), http.DefaultClient, ctl.URL, ModePause, 300*time.Millisecond); err != nil {
		t.Fatalf("InjectHTTP: %v", err)
	}
	if mode, delay := in.State(); mode != ModePause || delay != 300*time.Millisecond {
		t.Fatalf("state after control POST: %s %s", mode, delay)
	}

	resp, err := http.Get(ctl.URL + "/chaos")
	if err != nil {
		t.Fatalf("GET /chaos: %v", err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if !strings.Contains(string(body), `"mode":"pause"`) || !strings.Contains(string(body), `"delay_ms":300`) {
		t.Fatalf("GET /chaos = %s", body)
	}

	// Bad mode rejected, state unchanged.
	r2, _ := http.Post(ctl.URL+"/chaos?mode=explode", "", nil)
	if r2.StatusCode != http.StatusBadRequest {
		t.Fatalf("bad mode answered %d, want 400", r2.StatusCode)
	}
	r2.Body.Close()
	if mode, _ := in.State(); mode != ModePause {
		t.Fatalf("state changed by rejected POST: %s", mode)
	}
}

func TestParseTimeline(t *testing.T) {
	const text = `
# fleet chaos: kill one node, bring it back
+500ms kill edge-01
+2s    restart edge-01
@4s    pause edge-02 300ms
+1s    heal edge-02
+500ms mark settled
`
	events, err := ParseTimeline(strings.NewReader(text))
	if err != nil {
		t.Fatalf("ParseTimeline: %v", err)
	}
	want := []Event{
		{At: 500 * time.Millisecond, Verb: "kill", Node: "edge-01"},
		{At: 2500 * time.Millisecond, Verb: "restart", Node: "edge-01"},
		{At: 4 * time.Second, Verb: "pause", Node: "edge-02", Delay: 300 * time.Millisecond},
		{At: 5 * time.Second, Verb: "heal", Node: "edge-02"},
		{At: 5500 * time.Millisecond, Verb: "mark", Node: "settled"},
	}
	if len(events) != len(want) {
		t.Fatalf("got %d events, want %d: %v", len(events), len(want), events)
	}
	for i := range want {
		if events[i] != want[i] {
			t.Fatalf("event %d = %+v, want %+v", i, events[i], want[i])
		}
	}
}

func TestParseTimelineErrors(t *testing.T) {
	for _, bad := range []string{
		"500ms kill edge-01",     // no +/@ prefix
		"+1s explode edge-01",    // unknown verb
		"+1s pause edge-01",      // missing delay
		"+1s kill edge-01 extra", // trailing args
		"+1s pause edge-01 -3s",  // negative delay
		"+nope kill edge-01",     // bad duration
	} {
		if _, err := ParseTimeline(strings.NewReader(bad)); err == nil {
			t.Errorf("ParseTimeline(%q) accepted, want error", bad)
		}
	}
}

// FuzzParseTimeline feeds the timeline grammar arbitrary text: it must
// never panic, and whatever it accepts must re-render through
// Event.String into text it accepts again as the same events.
func FuzzParseTimeline(f *testing.F) {
	render := func(events []Event) string {
		var b strings.Builder
		for _, ev := range events {
			fmt.Fprintln(&b, ev)
		}
		return b.String()
	}
	f.Add(render(GenerateTimeline(7, []string{"edge-00", "edge-01", "edge-02"}, 10*time.Second, 4)))
	f.Add("# comment\n+500ms kill edge-01\n+2s restart edge-01\n@4s pause edge-02 300ms\n+1s mark settled\n")
	f.Add("+2000000h kill a\n+2000000h restart a\n") // relative offsets that overflow together
	f.Fuzz(func(t *testing.T, text string) {
		events, err := ParseTimeline(strings.NewReader(text))
		if err != nil {
			return
		}
		back, err := ParseTimeline(strings.NewReader(render(events)))
		if err != nil {
			t.Fatalf("accepted %q but rejected its rendering %q: %v", text, render(events), err)
		}
		if !slices.Equal(events, back) {
			t.Fatalf("round trip changed the events:\n%v\n%v", events, back)
		}
	})
}

func TestGenerateTimelineDeterministic(t *testing.T) {
	nodes := []string{"edge-00", "edge-01", "edge-02"}
	a := GenerateTimeline(42, nodes, 10*time.Second, 3)
	b := GenerateTimeline(42, nodes, 10*time.Second, 3)
	if len(a) == 0 || len(a) != len(b) {
		t.Fatalf("lengths differ or empty: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("seed 42 diverged at %d: %+v vs %+v", i, a[i], b[i])
		}
	}
	c := GenerateTimeline(43, nodes, 10*time.Second, 3)
	same := len(a) == len(c)
	if same {
		for i := range a {
			if a[i] != c[i] {
				same = false
				break
			}
		}
	}
	if same {
		t.Fatal("seeds 42 and 43 produced identical timelines")
	}

	// Every fault is repaired before the run ends, and sorted order.
	broken := map[string]bool{}
	var last time.Duration
	for _, ev := range a {
		if ev.At < last {
			t.Fatalf("events out of order: %+v", a)
		}
		last = ev.At
		switch ev.Verb {
		case "kill", "pause", "partition", "dead":
			broken[ev.Node] = true
		case "restart", "heal":
			delete(broken, ev.Node)
		}
		if ev.At > 10*time.Second {
			t.Fatalf("event past run end: %+v", ev)
		}
	}
	if len(broken) != 0 {
		t.Fatalf("nodes left broken at run end: %v", broken)
	}
}

// fakeTarget records applied actions.
type fakeTarget struct {
	mu      sync.Mutex
	actions []string
}

func (f *fakeTarget) record(s string) {
	f.mu.Lock()
	f.actions = append(f.actions, s)
	f.mu.Unlock()
}
func (f *fakeTarget) Kill(n string) error    { f.record("kill " + n); return nil }
func (f *fakeTarget) Restart(n string) error { f.record("restart " + n); return nil }
func (f *fakeTarget) Inject(n string, m Mode, d time.Duration) error {
	f.record(fmt.Sprintf("inject %s %s %s", n, m, d))
	return nil
}

func TestControllerRun(t *testing.T) {
	tgt := &fakeTarget{}
	var marks []string
	c := &Controller{
		Target:  tgt,
		OnEvent: func(ev Event) { marks = append(marks, ev.Verb+":"+ev.Node) },
	}
	events := []Event{
		{At: 0, Verb: "kill", Node: "edge-01"},
		{At: 10 * time.Millisecond, Verb: "mark", Node: "mid"},
		{At: 20 * time.Millisecond, Verb: "restart", Node: "edge-01"},
		{At: 30 * time.Millisecond, Verb: "pause", Node: "edge-00", Delay: 5 * time.Millisecond},
		{At: 40 * time.Millisecond, Verb: "heal", Node: "edge-00"},
	}
	if err := c.Run(context.Background(), events); err != nil {
		t.Fatalf("Run: %v", err)
	}
	want := []string{
		"kill edge-01",
		"restart edge-01",
		"inject edge-00 pause 5ms",
		"inject edge-00 ok 0s",
	}
	if len(tgt.actions) != len(want) {
		t.Fatalf("actions %v, want %v", tgt.actions, want)
	}
	for i := range want {
		if tgt.actions[i] != want[i] {
			t.Fatalf("action %d = %q, want %q", i, tgt.actions[i], want[i])
		}
	}
	if len(marks) != len(events) {
		t.Fatalf("OnEvent fired %d times, want %d", len(marks), len(events))
	}
}

func TestControllerCanceled(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	c := &Controller{Target: &fakeTarget{}}
	err := c.Run(ctx, []Event{{At: time.Hour, Verb: "kill", Node: "edge-00"}})
	if err == nil {
		t.Fatal("canceled Run returned nil")
	}
}
