package serve

import (
	"fmt"
	"math"
	"net/http/httptest"
	"strconv"
	"testing"
	"time"

	"repro/internal/defend"
	"repro/internal/edge"
	"repro/internal/logfmt"
	"repro/internal/resilience"
	"repro/internal/synth"
)

// get serves one GET through c's edge and returns the status.
func get(c *Core, path string) int {
	rec := httptest.NewRecorder()
	c.Edge.ServeHTTP(rec, httptest.NewRequest("GET", "http://edge.test"+path, nil))
	return rec.Code
}

// TestBuildCallerClock pins the caller-clock rule. On a caller's clock a
// stack in a total outage spends its whole retry budget without sleeping
// through the backoff, and its breaker opens and reopens on the caller's
// time, not on wall time.
func TestBuildCallerClock(t *testing.T) {
	now := time.Unix(1_700_000_000, 0)
	clock := func() time.Time { return now }
	outage := []resilience.Window{{From: now, To: now.Add(time.Hour)}}

	c := Build(Parts{Now: clock})
	c.Faulty.Brownouts = outage
	if c.Origin.AttemptTimeout != 0 {
		t.Errorf("AttemptTimeout = %v on a caller's clock, want none", c.Origin.AttemptTimeout)
	}
	// A breaker that never trips, so every request retries twice. The
	// shipped backoff would sleep a uniform [0, 5 ms) and then [0, 10 ms):
	// 7.5 ms a request, about 1.5 s for the run, and under 1 s only with
	// negligible probability.
	c.Breaker.FailureThreshold = math.MaxInt
	const requests = 200
	start := time.Now()
	for i := 0; i < requests; i++ {
		if code := get(c, "/article/"+strconv.Itoa(1000+i)); code != 503 {
			t.Fatalf("request %d in a total outage = %d, want 503", i, code)
		}
	}
	if elapsed := time.Since(start); elapsed > 500*time.Millisecond {
		t.Errorf("%d requests took %v: the backoff slept on wall time", requests, elapsed)
	}
	if got := c.Origin.Obs.Retries.Value(); got != 2*requests {
		t.Errorf("retries = %d, want %d", got, 2*requests)
	}

	c = Build(Parts{Now: clock})
	c.Faulty.Brownouts = outage
	// Five consecutive failures trip it: the first request's three
	// attempts and the second's two.
	get(c, "/stories")
	get(c, "/stories")
	if c.Breaker.State() != resilience.StateOpen || c.Breaker.Opens() != 1 {
		t.Fatalf("breaker %v after %d opens, want open once", c.Breaker.State(), c.Breaker.Opens())
	}
	opened, fetches := now, c.Faulty.Fetches()
	now = opened.Add(c.Breaker.OpenFor - time.Millisecond)
	if code := get(c, "/stories"); code != 503 || c.Faulty.Fetches() != fetches {
		t.Errorf("inside OpenFor: status %d, %d fetches; want 503 without reaching the origin",
			code, c.Faulty.Fetches()-fetches)
	}
	// OpenFor has passed on the caller's clock and not on the wall: the
	// probe reaches the origin, fails, and reopens the breaker.
	now = opened.Add(c.Breaker.OpenFor)
	get(c, "/stories")
	if c.Faulty.Fetches() != fetches+1 || c.Breaker.Opens() != 2 {
		t.Errorf("after OpenFor: %d probe fetches, %d opens; want 1 and 2",
			c.Faulty.Fetches()-fetches, c.Breaker.Opens())
	}
}

// TestBuildBareMatchesFullPath is the differential the adversarial
// exhibit's move onto the full resilience path rests on: with an origin
// that never fails, a Bare stack and a full one answer a seeded
// synthetic stream with an attack overlay identically — status and
// X-Cache request by request, and the same origin fetches — with and
// without the defense.
func TestBuildBareMatchesFullPath(t *testing.T) {
	cfg := synth.ShortTermConfig(11, 1)
	cfg.Duration = 3 * time.Minute
	cfg.TargetRequests = 3000
	cfg.Domains = 6
	cfg.Attack = synth.AttackConfig{CacheBustShare: 0.2, FlashShare: 0.1, BotShare: 0.1,
		AmplifyShare: 0.1, FlashObjects: 4, Start: 30 * time.Second}
	var recs []logfmt.Record
	if err := synth.Generate(cfg, func(r *logfmt.Record) error {
		recs = append(recs, *r)
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	for _, defended := range []bool{false, true} {
		t.Run(fmt.Sprintf("defend=%v", defended), func(t *testing.T) {
			var now time.Time
			stack := func(bare bool) *Core {
				p := Parts{
					Origin: &edge.WildcardOrigin{},
					Cache:  edge.NewCache(1<<20, time.Minute, 4),
					Now:    func() time.Time { return now },
					Bare:   bare,
				}
				if defended {
					p.Defend = defend.New(defend.Config{BustVariants: 6})
				}
				return Build(p)
			}
			bare, full := stack(true), stack(false)
			hits := 0
			for i := range recs {
				rec := &recs[i]
				now = rec.Time
				var answers [2]string
				for j, c := range []*Core{bare, full} {
					req := httptest.NewRequest(rec.Method, rec.URL, nil)
					req.Header.Set("User-Agent", rec.UserAgent)
					req.RemoteAddr = "c" + strconv.FormatUint(rec.ClientID, 16) + ":1"
					w := httptest.NewRecorder()
					c.Edge.ServeHTTP(w, req)
					answers[j] = strconv.Itoa(w.Code) + " " + w.Header().Get("X-Cache")
				}
				if answers[0] != answers[1] {
					t.Fatalf("record %d (%s %s): bare %q, full %q", i, rec.Method, rec.URL, answers[0], answers[1])
				}
				if answers[0] == "200 HIT" {
					hits++
				}
			}
			if bare.Faulty.Fetches() != full.Faulty.Fetches() {
				t.Errorf("origin fetches: bare %d, full %d", bare.Faulty.Fetches(), full.Faulty.Fetches())
			}
			// The stream must exercise the cache and, defended, the defense.
			var collapsed int64
			if defended {
				collapsed = full.DefendObs.Collapsed.Value()
			}
			if hits == 0 || bare.Faulty.Fetches() == 0 || (defended && collapsed == 0) {
				t.Errorf("vacuous stream: %d hits, %d fetches, %d collapsed over %d records",
					hits, bare.Faulty.Fetches(), collapsed, len(recs))
			}
		})
	}
}
