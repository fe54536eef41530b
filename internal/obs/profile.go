package obs

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"runtime/pprof"
)

// StartProfiles begins a CPU profile and returns a stop function that
// ends it and captures a heap profile, so a run can bracket its hot
// section (RunAll) with `defer`-free explicit calls. Files are written
// to dir ("." when empty; created if missing, as Manifest.WriteFile
// does) as cpu-<runID>.pprof and heap-<runID>.pprof —
// named by run id so they pair with the run's manifest. The error from
// stop reports any write failure.
func StartProfiles(dir, runID string) (stop func() error, err error) {
	if dir == "" {
		dir = "."
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("obs: creating profile dir: %w", err)
	}
	cpuPath := filepath.Join(dir, "cpu-"+runID+".pprof")
	f, err := os.Create(cpuPath)
	if err != nil {
		return nil, fmt.Errorf("obs: creating CPU profile: %w", err)
	}
	if err := pprof.StartCPUProfile(f); err != nil {
		f.Close()
		return nil, fmt.Errorf("obs: starting CPU profile: %w", err)
	}
	return func() error {
		pprof.StopCPUProfile()
		cpuErr := f.Close()
		heapPath := filepath.Join(dir, "heap-"+runID+".pprof")
		hf, err := os.Create(heapPath)
		if err != nil {
			return errors.Join(cpuErr, fmt.Errorf("obs: creating heap profile: %w", err))
		}
		runtime.GC() // materialize up-to-date allocation stats
		werr := pprof.WriteHeapProfile(hf)
		cerr := hf.Close()
		return errors.Join(cpuErr, werr, cerr)
	}, nil
}
