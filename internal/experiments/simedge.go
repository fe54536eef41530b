package experiments

import (
	"fmt"
	"net/http"
	"net/url"
	"strconv"
	"time"

	"repro/internal/obs"
	"repro/internal/serve"
)

// simEpoch anchors the simulated clock; any fixed instant works.
var simEpoch = time.Unix(1_700_000_000, 0).UTC()

// simEdge is one serve.Build stack driven serially on a simulated
// clock that the edge cache, the fault injector and the breaker share,
// so brownout windows, TTL expiries and breaker intervals line up
// identically across runs and across the stacks an exhibit compares.
type simEdge struct {
	*serve.Core
	clock time.Time

	// req and resp are refilled for every request: serving is serial
	// and neither the edge nor the defense keeps a request past
	// ServeHTTP.
	req  http.Request
	resp simResponse
}

// simResponse is the http.ResponseWriter the stacks answer into. The
// exhibits read the status and the X-Cache header; bodies are dropped.
type simResponse struct {
	header http.Header
	status int
}

func (w *simResponse) Header() http.Header { return w.header }

func (w *simResponse) WriteHeader(status int) {
	if w.status == 0 {
		w.status = status
	}
}

func (w *simResponse) Write(b []byte) (int, error) {
	w.WriteHeader(http.StatusOK)
	return len(b), nil
}

// newSimEdge builds p on the stack's own simulated clock.
func newSimEdge(p serve.Parts) *simEdge {
	s := &simEdge{clock: simEpoch}
	p.Now = func() time.Time { return s.clock }
	s.Core = serve.Build(p)
	s.req = http.Request{
		Proto: "HTTP/1.1", ProtoMajor: 1, ProtoMinor: 1,
		Header: http.Header{"User-Agent": {""}},
		Body:   http.NoBody,
	}
	s.resp.header = make(http.Header)
	return s
}

// stackRegistry is where the stack called name reports: the runner's
// registry under a stack=name label when instrumented, else a private
// one (nil), so an exhibit reads its counters either way.
func (r *Runner) stackRegistry(name string) *obs.Registry {
	if r.obsReg == nil {
		return nil
	}
	return r.obsReg.With("stack", name)
}

// serve answers one request at t: the request a server would read off
// the wire for rawURL from client, an absolute-form request line whose
// authority is the Host. It returns the status, the X-Cache header and
// the origin fetches the request caused.
func (s *simEdge) serve(t time.Time, method, rawURL, ua string, client uint64) (status int, xCache string, fetches int64) {
	s.clock = t
	u, err := url.ParseRequestURI(rawURL)
	if err != nil {
		panic(fmt.Sprintf("experiments: simulated request URL %q: %v", rawURL, err))
	}
	req := &s.req
	req.Method, req.URL, req.Host, req.RequestURI = method, u, u.Host, rawURL
	req.Header["User-Agent"][0] = ua
	req.RemoteAddr = "c" + strconv.FormatUint(client, 16) + ":1"
	w := &s.resp
	clear(w.header)
	w.status = 0
	before := s.Faulty.Fetches()
	s.Edge.ServeHTTP(w, req)
	return w.status, w.header.Get("X-Cache"), s.Faulty.Fetches() - before
}
