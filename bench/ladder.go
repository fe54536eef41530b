package main

import (
	"context"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"time"

	"repro/internal/edge"
	"repro/internal/fleet"
	"repro/internal/logfmt"
	"repro/internal/obs"
	"repro/internal/replay"
)

// Ladder iteration counts: fixed, so that a rung costs the same work on
// every run and on every commit.
const (
	ladderCalls = 20_000    // calls that go through a handler
	ladderTight = 1_000_000 // calls of a few nanoseconds
	ladderReps  = 3         // batches a rung; the fastest is reported
	ladderShort = 20        // smoke-test size divides the counts by this
)

// rung times ladderReps batches of n calls of fn, each batch one span,
// and returns the fastest batch's nanoseconds a call: the rungs are
// subtracted from each other, and the minimum is the estimate least
// disturbed by whatever else the machine was doing. i counts on across
// the batches.
func (r *run) rung(name string, n int, fn func(i int)) float64 {
	if r.opt.short {
		n /= ladderShort
	}
	var best time.Duration
	for rep := 0; rep < ladderReps; rep++ {
		d := r.rec.phase("ladder: "+name, func() {
			for i := rep * n; i < (rep+1)*n; i++ {
				fn(i)
			}
		})
		if rep == 0 || d < best {
			best = d
		}
	}
	return float64(best.Nanoseconds()) / float64(n)
}

// stubTransport answers every request with the same small 200, so that a
// caller's own cost is all that is left.
type stubTransport struct{}

func (stubTransport) RoundTrip(*http.Request) (*http.Response, error) {
	return &http.Response{
		StatusCode: http.StatusOK,
		Header:     http.Header{"Content-Type": {"application/json"}, "X-Cache": {"HIT"}},
		Body:       io.NopCloser(strings.NewReader(`{"ok":true}`)),
	}, nil
}

type noopOrigin struct{}

func (noopOrigin) Fetch(string) ([]byte, string, bool, error) {
	return []byte(`{}`), "application/json", true, nil
}

// ladder times each serving layer by direct calls, every rung adding
// one layer to the one before, so that the difference between two rungs
// is one layer's cost on one thread. It uses the workload's own node
// wiring; on serve-hot the defend and livechar rungs do not exist.
func (r *run) ladder(ctx context.Context, hostile bool) error {
	now := time.Now()
	cache := edge.NewCache(32<<20, time.Minute, 4)
	cache.Insert("http://"+benchHost+"/ladder/hit", 1024, now, false)
	r.m.set("edge.cache_lookup_ns", r.rung("Cache.Lookup hit", ladderTight, func(int) {
		if cache.Lookup("http://"+benchHost+"/ladder/hit", now) {
			sink++
		}
	}))

	// Every handler rung sees its own client id, so that a Defender's
	// per-client bucket never runs dry, and the same recorder type.
	request := func(i int, path string) *http.Request {
		req := httptest.NewRequest(http.MethodGet, "http://"+benchHost+path, nil)
		req.Header.Set("User-Agent", "NewsApp/3.1 (iPhone; iOS 12.2)")
		req.Header.Set("X-Client-Id", fmt.Sprintf("%016x", i+1))
		return req
	}
	hits := make([]*http.Request, ladderCalls)
	misses := make([]*http.Request, ladderCalls*ladderReps) // a miss only once
	for i := range hits {
		hits[i] = request(i, "/ladder/hit")
	}
	for i := range misses {
		misses[i] = request(i, fmt.Sprintf("/ladder/miss/%d", i))
	}
	serveAll := func(h http.Handler, reqs []*http.Request) func(int) {
		return func(i int) {
			w := httptest.NewRecorder()
			h.ServeHTTP(w, reqs[i%len(reqs)])
			sink += w.Code
		}
	}

	bare := r.newNode(0, false, false, 1)
	bare.edge.ServeHTTP(httptest.NewRecorder(), hits[0]) // fill the cache
	hit := r.rung("HTTPEdge.ServeHTTP hit", ladderCalls, serveAll(bare.edge, hits))
	r.m.set("edge.serve_hit_ns", hit)
	r.m.set("edge.serve_miss_ns", r.rung("HTTPEdge.ServeHTTP miss", ladderCalls, serveAll(bare.edge, misses)))

	if hostile {
		defended := r.newNode(0, true, false, 1)
		defer defended.char.Close()
		defended.edge.Log = nil
		defended.edge.ServeHTTP(httptest.NewRecorder(), hits[0])
		withDefend := r.rung("+defend.Admit/RecordOutcome", ladderCalls, serveAll(defended.edge, hits))
		r.m.set("defend.admit_ns", withDefend-hit)

		tapped := r.newNode(0, true, false, 1)
		defer tapped.char.Close()
		tapped.edge.ServeHTTP(httptest.NewRecorder(), hits[0])
		r.m.set("livechar.observe_ns", r.rung("+livechar.Observe", ladderCalls, serveAll(tapped.edge, hits))-withDefend)
	}

	front := fleet.New(fleet.Config{Transport: stubTransport{}},
		&fleet.Member{Name: nodeName(0), URL: "http://node0.invalid"},
		&fleet.Member{Name: nodeName(1), URL: "http://node1.invalid"})
	front.Instrument(obs.NewRegistry())
	front.StartHealth() // Drain waits for the checker
	r.m.set("fleet.route_ns", r.rung("fleet.ServeHTTP over a stub transport", ladderCalls, serveAll(front, hits)))
	front.Drain()

	var inner edge.Origin = noopOrigin{}
	direct := r.rung("no-op Origin.Fetch", ladderCalls, func(int) {
		b, _, _, _ := inner.Fetch("/ladder")
		sink += len(b)
	})
	resilient := newResilient(inner, 1, obs.NewRegistry())
	r.m.set("resilience.fetch_overhead_ns", r.rung("ResilientOrigin.Fetch over a no-op origin", ladderCalls, func(int) {
		b, _, _, _ := resilient.Fetch("/ladder")
		sink += len(b)
	})-direct)

	recs := make([]logfmt.Record, ladderCalls)
	if r.opt.short {
		recs = recs[:ladderCalls/ladderShort]
	}
	for i := range recs {
		recs[i] = logfmt.Record{Time: now, Method: http.MethodGet, URL: fmt.Sprintf("http://%s/ladder/%d", benchHost, i), ClientID: uint64(i)}
	}
	var res *replay.Result
	var err error
	r.rec.phase("ladder: replay.Run against a stub client", func() {
		res, err = replay.Run(ctx, recs, replay.Config{
			Target:      "http://stub.invalid",
			Rate:        1e9, // every request is already due: the dispatcher never waits
			Concurrency: r.p,
			Client:      &http.Client{Transport: stubTransport{}},
		})
	})
	if err != nil {
		return err
	}
	r.m.set("replay.max_dispatch_rps", res.AchievedRPS())

	h := obs.NewHDRHistogram(obs.LatencyHDRConfig())
	r.m.set("obs.hdr_record_ns", r.rung("HDRHistogram.Record", ladderTight, func(i int) {
		h.Record(int64(i%10_000) * 1000)
	}))
	sink += int(h.Count())
	return nil
}
