package serve

import (
	"context"
	"fmt"
	"net"
	"net/http"
	"sync"
	"time"

	"repro/internal/edge"
	"repro/internal/fleet/chaos"
	"repro/internal/obs"
)

// Lifecycle is one serving process's sequence, written once: bind the
// data listener; with a chaos address, wrap the data handler in a
// chaos.Injector and serve its control endpoint on its own listener;
// serve the admin mux; flip Health ready, then publish the URL file
// (data, admin[, chaos]) — the handshake's ordering contract. Stop
// reverses it: readiness off, the Drain hook, Shutdown within
// DrainGrace, then the chaos and admin servers close.
type Lifecycle struct {
	Listen  string // data listener address (port 0 works)
	Admin   string // admin listener address
	Chaos   string // chaos control listener address; "" serves none
	URLFile string // "" publishes nothing

	DrainGrace time.Duration // in-flight window after readiness flips off

	Handler  http.Handler // data handler
	AdminMux http.Handler
	Health   *obs.Health
	// Drain, if set, runs once readiness is off and before the data
	// listener shuts down (the fleet front passes fleet.Drain).
	Drain func()
	Log   *obs.Logger
}

// Server is a started Lifecycle.
type Server struct {
	URL, AdminURL, ChaosURL string

	lc                  Lifecycle
	data, admin, chaosS *http.Server
	stopped             sync.Once
}

// Start binds every listener, serves, flips readiness on and publishes
// the URL file. On error nothing is left listening.
func (lc Lifecycle) Start() (*Server, error) {
	ln, err := net.Listen("tcp", lc.Listen)
	if err != nil {
		return nil, fmt.Errorf("serve: listen %s: %w", lc.Listen, err)
	}
	s := &Server{lc: lc, URL: "http://" + ln.Addr().String()}
	handler := lc.Handler
	if lc.Chaos != "" {
		// Every data request, /healthz included, routes through the
		// injector; the control endpoint gets its own listener so a
		// partitioned node can still be healed.
		injector := &chaos.Injector{}
		handler = injector.Wrap(handler)
		cln, err := net.Listen("tcp", lc.Chaos)
		if err != nil {
			ln.Close()
			return nil, fmt.Errorf("serve: chaos listen %s: %w", lc.Chaos, err)
		}
		s.ChaosURL = "http://" + cln.Addr().String()
		s.chaosS = &http.Server{Handler: injector.ControlHandler()}
		go s.chaosS.Serve(cln)
	}
	s.data = &http.Server{Handler: handler}
	go s.data.Serve(ln)
	if s.admin, s.AdminURL, err = obs.ServeHandler(lc.Admin, lc.AdminMux); err != nil {
		s.close()
		return nil, err
	}

	lc.Health.SetReady(true)
	if lc.URLFile != "" {
		urls := []string{s.URL, s.AdminURL}
		if s.ChaosURL != "" {
			urls = append(urls, s.ChaosURL)
		}
		if err := edge.WriteURLFile(lc.URLFile, urls...); err != nil {
			lc.Health.SetReady(false)
			s.close()
			return nil, fmt.Errorf("serve: publishing URL file: %w", err)
		}
	}
	lc.Log.Info("serving", "url", s.URL, "admin", s.AdminURL,
		"chaos", s.ChaosURL, "url_file", lc.URLFile)
	return s, nil
}

// Stop drains and closes the server: readiness flips off first so
// probers and supervisors stop routing here, the Drain hook runs, then
// in-flight requests get DrainGrace before the data listener closes.
// Later calls do nothing.
func (s *Server) Stop() {
	s.stopped.Do(func() {
		s.lc.Health.SetReady(false)
		s.lc.Log.Info("draining", "grace", s.lc.DrainGrace)
		if s.lc.Drain != nil {
			s.lc.Drain()
		}
		ctx, cancel := context.WithTimeout(context.Background(), s.lc.DrainGrace)
		defer cancel()
		s.data.Shutdown(ctx)
		s.close()
	})
}

// close closes every server without waiting.
func (s *Server) close() {
	for _, srv := range []*http.Server{s.data, s.chaosS, s.admin} {
		if srv != nil {
			srv.Close()
		}
	}
}
