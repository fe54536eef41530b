package prefetch

import (
	"fmt"
	"testing"
	"time"

	"repro/internal/flows"
	"repro/internal/logfmt"
	"repro/internal/ngram"
	"repro/internal/stats"
)

func pushModel() *ngram.Model {
	m := ngram.NewModel(1)
	for i := 0; i < 20; i++ {
		m.Train([]string{"https://x.com/a", "https://x.com/b", "https://x.com/c"})
	}
	return m
}

func getRec(client uint64, url string, at time.Time) logfmt.Record {
	return logfmt.Record{
		Time: at, ClientID: client, Method: "GET", URL: url,
		UserAgent: "App/1.0", MIMEType: "application/json",
		Status: 200, Bytes: 500, Cache: logfmt.CacheMiss,
	}
}

// pushOf replays recs through a simulator around pushModel and returns
// its push accounting.
func pushOf(recs ...logfmt.Record) PushResult {
	s := NewSimulator(pushModel(), DefaultConfig())
	for i := range recs {
		s.Observe(&recs[i])
	}
	return s.Result().Push
}

func TestPushEliminatesPredictedRequests(t *testing.T) {
	var recs []logfmt.Record
	for i, u := range []string{"https://x.com/a", "https://x.com/b", "https://x.com/c"} {
		recs = append(recs, getRec(1, u, t0.Add(time.Duration(i)*5*time.Second)))
	}
	res := pushOf(recs...)
	if res.Requests != 3 {
		t.Fatalf("requests = %d", res.Requests)
	}
	// a's response pushes b; b's request is eliminated; b pushes c.
	if res.Eliminated != 2 {
		t.Errorf("eliminated = %d, want 2 (b and c)", res.Eliminated)
	}
	if res.EliminationRate() < 0.6 {
		t.Errorf("elimination rate = %v", res.EliminationRate())
	}
	if res.UsedBytes == 0 || res.PushedBytes < res.UsedBytes {
		t.Errorf("byte accounting: %+v", res)
	}
}

func TestPushLifetimeExpiry(t *testing.T) {
	// Client 1 asks for b just inside the pushed copy's lifetime, client 2
	// just after it expired.
	res := pushOf(
		getRec(1, "https://x.com/a", t0),
		getRec(1, "https://x.com/b", t0.Add(pushLifetime-time.Second)),
		getRec(2, "https://x.com/a", t0),
		getRec(2, "https://x.com/b", t0.Add(pushLifetime+time.Second)),
	)
	if res.Eliminated != 1 {
		t.Errorf("eliminated = %d, want 1 (client 1's b only)", res.Eliminated)
	}
}

func TestPushPerClientIsolation(t *testing.T) {
	// A different client asking for b gets no benefit from client 1's push.
	res := pushOf(getRec(1, "https://x.com/a", t0), getRec(2, "https://x.com/b", t0.Add(time.Second)))
	if res.Eliminated != 0 {
		t.Errorf("cross-client push leak: %d", res.Eliminated)
	}
}

func TestPushNoDuplicatePushes(t *testing.T) {
	// Two a-requests in quick succession push b only once.
	res := pushOf(getRec(1, "https://x.com/a", t0), getRec(1, "https://x.com/a", t0.Add(2*time.Second)))
	if res.Pushes != 1 {
		t.Errorf("pushes = %d, want 1", res.Pushes)
	}
}

func TestPushPostAdvancesHistoryOnly(t *testing.T) {
	p := getRec(1, "https://x.com/a", t0)
	p.Method = "POST"
	res := pushOf(p)
	if res.Requests != 0 {
		t.Errorf("POST counted as request: %+v", res)
	}
	// But the prediction from the history still pushed b.
	if res.Pushes == 0 {
		t.Error("history not advanced by POST")
	}
}

func TestPushWastedBytes(t *testing.T) {
	res := pushOf(getRec(1, "https://x.com/a", t0)) // pushes b, never requested
	if res.WastedBytes() != res.PushedBytes {
		t.Errorf("waste = %d, want all of %d", res.WastedBytes(), res.PushedBytes)
	}
}

// pushOracle is the server-push simulator as it stood on its own, before
// push was booked inside Simulator.Observe: its own per-client history,
// size table and URL canonicalisation, a 30 s client lifetime and a
// 1 KiB size for never-seen objects. TestPushMatchesOracle holds
// Simulator's push accounting to it.
type pushOracle struct {
	model *ngram.Model
	k     int

	history map[flows.ClientKey][]string
	pushed  map[flows.ClientKey]map[string]time.Time
	sizes   map[string]int64

	res PushResult
}

func newPushOracle(model *ngram.Model, k int) *pushOracle {
	return &pushOracle{
		model:   model,
		k:       k,
		history: make(map[flows.ClientKey][]string),
		pushed:  make(map[flows.ClientKey]map[string]time.Time),
		sizes:   make(map[string]int64),
	}
}

func (s *pushOracle) Observe(r *logfmt.Record) {
	key := flows.ClientKeyFor(r)
	url := logfmt.CanonicalURL(r.URL)
	if r.Bytes > 0 {
		s.sizes[url] = r.Bytes
	}

	if r.Method == "GET" {
		s.res.Requests++
		if exp, ok := s.pushed[key][url]; ok {
			delete(s.pushed[key], url)
			if r.Time.Before(exp) {
				s.res.Eliminated++
				size := s.sizes[url]
				if size == 0 {
					size = 1024
				}
				s.res.UsedBytes += size
			}
		}
	}

	h := append(s.history[key], url)
	if len(h) > s.model.Order() {
		h = h[len(h)-s.model.Order():]
	}
	s.history[key] = h

	preds := s.model.PredictTopK(h, s.k)
	if len(preds) == 0 {
		return
	}
	pm := s.pushed[key]
	if pm == nil {
		pm = make(map[string]time.Time)
		s.pushed[key] = pm
	}
	for _, p := range preds {
		if p == url {
			continue
		}
		if exp, ok := pm[p]; ok && r.Time.Before(exp) {
			continue // already fresh at the client
		}
		pm[p] = r.Time.Add(30 * time.Second)
		s.res.Pushes++
		size := s.sizes[p]
		if size == 0 {
			size = 1024
		}
		s.res.PushedBytes += size
	}
}

// pushStream is a seeded stream over a dozen clients and a Zipf-popular
// set of 40 objects, spelled in non-canonical forms, with some POSTs and
// some zero-byte records; per-client gaps straddle the push lifetime.
func pushStream(seed uint64) []logfmt.Record {
	rng, zipf := stats.NewRNG(seed), stats.NewZipf(40, 1.1)
	recs := make([]logfmt.Record, 3000)
	at := t0
	for i := range recs {
		at = at.Add(time.Duration(rng.Intn(8000)) * time.Millisecond)
		u := fmt.Sprintf("https://X.com:443/o/%d", zipf.Sample(rng))
		if rng.Bool(0.2) {
			u += "?b=2&a=1"
		}
		r := getRec(uint64(rng.Intn(12)), u, at)
		if rng.Bool(0.1) {
			r.Method = "POST"
		}
		r.Bytes = int64(100 + rng.Intn(900))
		if rng.Bool(0.05) {
			r.Bytes = 0
		}
		recs[i] = r
	}
	return recs
}

// TestPushMatchesOracle replays seeded streams through Simulator and the
// standalone push oracle at several fan-outs and model orders: every
// PushResult field must agree.
func TestPushMatchesOracle(t *testing.T) {
	var eliminated, wasted int64
	for seed := uint64(1); seed <= 10; seed++ {
		recs := pushStream(seed)
		seq := ngram.NewSequencer()
		seq.TestFraction = 0.01
		for i := range recs {
			seq.Observe(&recs[i])
		}
		model, _ := seq.TrainAndEvaluate(1+int(seed%2), nil)
		for _, k := range []int{1, 2, 5} {
			cfg := DefaultConfig()
			cfg.K = k
			sim, oracle := NewSimulator(model, cfg), newPushOracle(model, k)
			for i := range recs {
				sim.Observe(&recs[i])
				oracle.Observe(&recs[i])
			}
			if got, want := sim.Result().Push, oracle.res; got != want {
				t.Errorf("seed %d K=%d:\n got %+v\nwant %+v", seed, k, got, want)
			}
			eliminated += oracle.res.Eliminated
			wasted += oracle.res.WastedBytes()
		}
	}
	if eliminated == 0 || wasted == 0 {
		t.Errorf("streams left a path unexercised: %d eliminated, %d bytes wasted", eliminated, wasted)
	}
}
