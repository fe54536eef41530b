package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
)

// child runs one workload in a fresh process — so that peak_rss_mb is
// that workload's own — and returns what it reported.
func child(opt options, workload string, seed uint64, trace bool) (outcome, error) {
	t := "0"
	if trace {
		t = "1"
	}
	args := []string{
		"--workload", workload, "--seed", strconv.FormatUint(seed, 10),
		"--seconds", strconv.FormatFloat(opt.seconds, 'g', -1, 64), "--trace", t, "--out", opt.outDir,
	}
	if opt.short {
		args = append(args, "--short")
	}
	cmd := exec.Command(os.Args[0], args...)
	cmd.Stderr = os.Stderr
	stdout, runErr := cmd.Output()
	lines := bytes.Split(bytes.TrimSpace(stdout), []byte("\n"))
	var out outcome
	if err := json.Unmarshal(lines[len(lines)-1], &out); err != nil {
		if runErr != nil {
			return out, fmt.Errorf("%s: %w", workload, runErr)
		}
		return out, fmt.Errorf("%s: last line of output is not a result: %w", workload, err)
	}
	if runErr != nil {
		return out, fmt.Errorf("%s: %w", workload, runErr)
	}
	return out, nil
}

// runAll is the mode without --workload: every workload in its own
// child process, untraced, plus a traced child each with --trace 1. With
// calibrate > 0 it repeats the untraced set that many times, each round
// on another seed and in the opposite workload order, and reports each
// end-to-end metric's spread over the rounds against its bound.
func runAll(opt options, calibrate int) int {
	env := environment(opt.seed)
	fmt.Printf("# %v\n", env)
	if runtime.GOMAXPROCS(0) != runtime.NumCPU() {
		fmt.Printf("# WARNING: GOMAXPROCS %d differs from nproc %d; parallel layers are sized to nproc\n",
			runtime.GOMAXPROCS(0), runtime.NumCPU())
	}
	rounds := 1
	if calibrate > 0 {
		rounds = calibrate
	}
	status := 0
	// values[workload][metric] collects one value a round.
	values := map[string]map[string][]float64{}
	results := map[string]any{"environment": env}
	for round := 0; round < rounds; round++ {
		order := make([]string, len(workloads))
		for i, w := range workloads {
			if round%2 == 0 {
				order[i] = w.name
			} else {
				order[len(order)-1-i] = w.name
			}
		}
		for _, name := range order {
			for _, trace := range []bool{false, true} {
				if trace && (!opt.trace || calibrate > 0) {
					continue
				}
				out, err := child(opt, name, opt.seed+uint64(round), trace)
				if err != nil {
					fmt.Fprintln(os.Stderr, "bench:", err)
					status = 1
					continue
				}
				for _, d := range declared(trace) {
					fmt.Printf("%s %s %s %s\n", name, d.name, strconv.FormatFloat(out.Metrics[d.name].Value, 'g', -1, 64), d.unit)
					if !trace {
						if values[name] == nil {
							values[name] = map[string][]float64{}
						}
						values[name][d.name] = append(values[name][d.name], out.Metrics[d.name].Value)
					}
				}
				fmt.Printf("%s attempted %d failed %d correct %v\n", name, out.Attempted, out.Failed, out.Correct)
				key := name
				if trace {
					key += "/traced"
				}
				results[fmt.Sprintf("%s/seed-%d", key, opt.seed+uint64(round))] = out
			}
		}
	}
	if calibrate > 0 {
		if !reportSpread(values) {
			status = 1
		}
	}
	doc, err := json.MarshalIndent(results, "", "  ")
	if err == nil {
		err = os.WriteFile(filepath.Join(opt.outDir, "result.json"), append(doc, '\n'), 0o644)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		status = 1
	}
	return status
}

// quartiles returns the first quartile, median and third quartile of vs
// by the exclusive method (Python's statistics.quantiles(vs, n=4)).
func quartiles(vs []float64) (q1, q2, q3 float64) {
	s := append([]float64(nil), vs...)
	sort.Float64s(s)
	at := func(p float64) float64 {
		pos := p * float64(len(s)+1)
		i := int(pos)
		switch {
		case i < 1:
			return s[0]
		case i >= len(s):
			return s[len(s)-1]
		}
		return s[i-1] + (pos-float64(i))*(s[i]-s[i-1])
	}
	return at(0.25), at(0.5), at(0.75)
}

// reportSpread prints, for each workload and end-to-end metric, the
// median, the quartiles and their distance as a share of the median,
// and whether that share is inside the metric's bound.
func reportSpread(values map[string]map[string][]float64) bool {
	ok := true
	fmt.Printf("\n%-14s %-18s %12s %12s %12s %8s %6s\n", "workload", "metric", "q1", "median", "q3", "iqr/med", "bound")
	for _, w := range workloads {
		for _, d := range endToEnd {
			vs := values[w.name][d.name]
			if len(vs) < 2 {
				continue
			}
			q1, q2, q3 := quartiles(vs)
			spread := ratio(q3-q1, q2)
			verdict := "inside"
			if spread > d.bound && d.name != "setup_s" {
				verdict = "OUTSIDE"
				ok = false
			}
			fmt.Printf("%-14s %-18s %12.4f %12.4f %12.4f %8.4f %6.2f %s\n", w.name, d.name, q1, q2, q3, spread, d.bound, verdict)
		}
	}
	return ok
}
