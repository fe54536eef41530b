// Command pairs runs the benchmark alternately on a parent revision and
// on the working tree, one pair of runs per seed, and prints the paired
// table the EXPERIMENTS.md notes carry: for every workload and
// end-to-end metric of BENCHMARK.json, the parent's median → the
// change's median, their ratio, the parent's IQR ÷ median, the number of
// pairs the change won, and a verdict against the metric's bound.
//
//	go run ./scripts/pairs -pairs 10 -seeds 3101..3110 -workloads repro-batch -out PAIRS_<pr>.json HEAD~1
//
// The parent is exported with git archive into -work, both benchmarks
// are built once, and every run is `bench --trace 0` for BENCHMARK.json's
// run_seconds in its own tree, parent first in odd pairs. The runs and
// the table go to -out.
package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"slices"
	"strconv"
	"strings"
)

// bound is one end-to-end metric of BENCHMARK.json.
type bound struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"` // "higher" or "lower"
	Bound  float64 `json:"bound"`  // allowed relative regression
}

// result is the one JSON line a benchmark run ends with.
type result struct {
	Correct bool  `json:"correct"`
	Failed  int64 `json:"failed"`
	Metrics map[string]struct {
		Value float64 `json:"value"`
	} `json:"metrics"`
}

// run is one benchmark run of one side of one pair.
type run struct {
	Workload string `json:"workload"`
	Pair     int    `json:"pair"`
	Seed     uint64 `json:"seed"`
	Side     string `json:"side"` // "parent" or "change"
	Result   result `json:"result"`
}

// cell is one workload × metric entry of the table.
type cell struct {
	Workload string  `json:"workload"`
	Metric   string  `json:"metric"`
	Parent   float64 `json:"parent_median"`
	Change   float64 `json:"change_median"`
	Ratio    float64 `json:"ratio"`
	IQR      float64 `json:"parent_iqr"`
	Spread   float64 `json:"parent_spread"` // IQR ÷ median
	Wins     int     `json:"wins"`
	N        int     `json:"pairs"`
	Bound    float64 `json:"bound"`
	Verdict  string  `json:"verdict"`
}

// ledger is what -out writes.
type ledger struct {
	Parent  string  `json:"parent"`
	Change  string  `json:"change"`
	Seconds float64 `json:"seconds"`
	Bounds  []bound `json:"bounds"`
	Runs    []run   `json:"runs"`
	Cells   []cell  `json:"cells"`
}

// The verdicts. A claim needs the change better in at least nine pairs
// of ten and its median ahead of the parent's by more than the parent's
// IQR; otherwise a parent spread wider than the bound cannot tell
// either way, unless every change run read better than every parent
// run, and a median worse by more than the bound is outside it.
const (
	claimable  = "claimable"
	inside     = "inside bound"
	outside    = "outside bound"
	unresolved = "unresolved"
)

func main() {
	pairs := flag.Int("pairs", 10, "parent/change pairs per workload")
	seeds := flag.String("seeds", "", "seed range A..B, one seed per pair")
	workloads := flag.String("workloads", "", "comma-separated workloads (default: every BENCHMARK.json workload)")
	out := flag.String("out", "PAIRS.json", "file the runs and the table are written to")
	work := flag.String("work", "", "scratch directory for the parent tree, binaries and bench output (default: a new temporary directory)")
	flag.Parse()
	if flag.NArg() != 1 || *pairs < 1 {
		fmt.Fprintln(os.Stderr, "usage: pairs [flags] <parent revision>")
		flag.PrintDefaults()
		os.Exit(2)
	}
	first, err := parseSeeds(*seeds, *pairs)
	if err != nil {
		fatal(err)
	}
	l, err := measure(flag.Arg(0), first, *pairs, *workloads, *work)
	if err != nil {
		fatal(err)
	}
	buf, err := json.MarshalIndent(l, "", "  ")
	if err != nil {
		fatal(err)
	}
	if err := os.WriteFile(*out, append(buf, '\n'), 0o644); err != nil {
		fatal(err)
	}
	writeTable(os.Stdout, l)
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "pairs:", err)
	os.Exit(1)
}

// parseSeeds reads "A..B" and returns A, checking the range holds at
// least n seeds.
func parseSeeds(s string, n int) (uint64, error) {
	lo, hi, ok := strings.Cut(s, "..")
	a, errA := strconv.ParseUint(lo, 10, 64)
	b, errB := strconv.ParseUint(hi, 10, 64)
	if !ok || errA != nil || errB != nil || b < a {
		return 0, fmt.Errorf("-seeds %q: want A..B with A <= B", s)
	}
	if b-a+1 < uint64(n) {
		return 0, fmt.Errorf("-seeds %q has %d seeds for %d pairs", s, b-a+1, n)
	}
	return a, nil
}

// benchmarkFile is the part of BENCHMARK.json the tool reads.
type benchmarkFile struct {
	RunSeconds float64 `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []bound `json:"end_to_end"`
}

// measure exports parent, builds both benchmarks and runs the pairs.
func measure(parent string, firstSeed uint64, pairs int, workloads string, work string) (*ledger, error) {
	root, err := git(".", "rev-parse", "--show-toplevel")
	if err != nil {
		return nil, err
	}
	var bf benchmarkFile
	raw, err := os.ReadFile(filepath.Join(root, "BENCHMARK.json"))
	if err == nil {
		err = json.Unmarshal(raw, &bf)
	}
	if err != nil {
		return nil, fmt.Errorf("reading BENCHMARK.json: %w", err)
	}
	names := strings.Split(workloads, ",")
	if workloads == "" {
		names = nil
		for _, w := range bf.Workloads {
			names = append(names, w.Name)
		}
	}
	parentSHA, err := git(root, "rev-parse", "--verify", parent+"^{commit}")
	if err != nil {
		return nil, err
	}
	change, err := git(root, "rev-parse", "HEAD")
	if err != nil {
		return nil, err
	}
	if dirty, _ := git(root, "status", "--porcelain"); dirty != "" {
		change += "+dirty"
	}
	if work == "" {
		if work, err = os.MkdirTemp("", "pairs-"); err != nil {
			return nil, err
		}
	}
	trees := map[string]string{"parent": filepath.Join(work, "parent"), "change": root}
	if err := export(root, parentSHA, trees["parent"]); err != nil {
		return nil, err
	}
	bins := map[string]string{}
	for side, tree := range trees {
		bins[side] = filepath.Join(work, "bench-"+side)
		build := exec.Command("go", "build", "-buildvcs=false", "-o", bins[side], ".")
		build.Dir = filepath.Join(tree, "bench")
		build.Env = append(os.Environ(), "GOTOOLCHAIN=local", "GOPROXY=off")
		build.Stderr = os.Stderr
		if err := build.Run(); err != nil {
			return nil, fmt.Errorf("building the %s benchmark: %w", side, err)
		}
	}

	l := &ledger{Parent: parentSHA, Change: change, Seconds: bf.RunSeconds, Bounds: bf.EndToEnd}
	for _, w := range names {
		for p := 1; p <= pairs; p++ {
			seed := firstSeed + uint64(p-1)
			order := []string{"parent", "change"}
			if p%2 == 0 {
				order = []string{"change", "parent"}
			}
			for _, side := range order {
				res, err := bench(bins[side], trees[side], filepath.Join(work, "out-"+side), w, seed, bf.RunSeconds)
				if err != nil {
					return nil, fmt.Errorf("%s %s seed %d: %w", side, w, seed, err)
				}
				fmt.Fprintf(os.Stderr, "pairs: %s pair %d/%d %s correct=%v failed=%d\n", w, p, pairs, side, res.Correct, res.Failed)
				l.Runs = append(l.Runs, run{Workload: w, Pair: p, Seed: seed, Side: side, Result: res})
			}
		}
	}
	l.Cells = analyze(l.Runs, l.Bounds)
	return l, nil
}

func git(dir string, args ...string) (string, error) {
	cmd := exec.Command("git", args...)
	cmd.Dir = dir
	cmd.Stderr = os.Stderr
	out, err := cmd.Output()
	if err != nil {
		return "", fmt.Errorf("git %s: %w", strings.Join(args, " "), err)
	}
	return strings.TrimSpace(string(out)), nil
}

// export writes the tree of rev into dir (replacing it) with git
// archive: a plain copy that leaves no worktree behind to prune.
func export(root, rev, dir string) error {
	if err := os.RemoveAll(dir); err != nil {
		return err
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	archive := exec.Command("git", "archive", rev)
	archive.Dir = root
	untar := exec.Command("tar", "-x", "-C", dir)
	pipe, err := archive.StdoutPipe()
	if err != nil {
		return err
	}
	untar.Stdin = pipe
	untar.Stderr = os.Stderr
	archive.Stderr = os.Stderr
	if err := untar.Start(); err != nil {
		return err
	}
	if err := archive.Run(); err != nil {
		return errors.Join(fmt.Errorf("git archive %s: %w", rev, err), untar.Wait())
	}
	return untar.Wait()
}

// bench runs one workload in tree and returns its last stdout line. A
// run whose checks fail exits non-zero but still prints its result,
// which is kept: the table counts it.
func bench(bin, tree, out, workload string, seed uint64, seconds float64) (result, error) {
	cmd := exec.Command(bin, "--workload", workload, "--seed", strconv.FormatUint(seed, 10),
		"--seconds", strconv.FormatFloat(seconds, 'g', -1, 64), "--trace", "0", "--out", out)
	cmd.Dir = tree
	cmd.Stderr = os.Stderr
	stdout, err := cmd.Output()
	res, perr := lastResult(bytes.NewReader(stdout))
	if perr != nil {
		return res, errors.Join(err, perr)
	}
	return res, nil
}

// lastResult parses the last non-empty line of a run's stdout.
func lastResult(r io.Reader) (result, error) {
	var last string
	sc := bufio.NewScanner(r)
	sc.Buffer(nil, 1<<20)
	for sc.Scan() {
		if line := strings.TrimSpace(sc.Text()); line != "" {
			last = line
		}
	}
	var res result
	if err := json.Unmarshal([]byte(last), &res); err != nil {
		return res, fmt.Errorf("no result line: %w", err)
	}
	return res, nil
}

// analyze builds the table's cells: one per workload (in run order) and
// bound, over the pairs that have both sides.
func analyze(runs []run, bounds []bound) []cell {
	type key struct {
		workload string
		pair     int
	}
	sides := map[key][2]*result{}
	var workloads []string
	for i := range runs {
		r := &runs[i]
		if !slices.Contains(workloads, r.Workload) {
			workloads = append(workloads, r.Workload)
		}
		k := key{r.Workload, r.Pair}
		s := sides[k]
		if r.Side == "parent" {
			s[0] = &r.Result
		} else {
			s[1] = &r.Result
		}
		sides[k] = s
	}
	var cells []cell
	for _, w := range workloads {
		for _, b := range bounds {
			var par, chg []float64
			wins := 0
			for k, s := range sides {
				if k.workload != w || s[0] == nil || s[1] == nil {
					continue
				}
				p, c := s[0].Metrics[b.Name].Value, s[1].Metrics[b.Name].Value
				par, chg = append(par, p), append(chg, c)
				if better(b, c, p) {
					wins++
				}
			}
			c := cell{Workload: w, Metric: b.Name, Wins: wins, N: len(par), Bound: b.Bound}
			c.Parent, c.Change = quantile(par, 0.5), quantile(chg, 0.5)
			c.IQR = quantile(par, 0.75) - quantile(par, 0.25)
			if c.Parent != 0 {
				c.Ratio = c.Change / c.Parent
				c.Spread = c.IQR / c.Parent
			}
			// Every change run reading better than every parent run
			// settles a comparison however wide the spread.
			apart := false
			if len(par) > 0 {
				lo, hi := slices.Min(chg), slices.Max(par)
				if b.Better == "lower" {
					lo, hi = slices.Max(chg), slices.Min(par)
				}
				apart = better(b, lo, hi)
			}
			c.Verdict = verdict(b, c, apart)
			cells = append(cells, c)
		}
	}
	return cells
}

// better reports whether a reads better than b on metric m.
func better(m bound, a, b float64) bool {
	if m.Better == "lower" {
		return a < b
	}
	return a > b
}

// verdict applies the rule above; apart says every change run read
// better than every parent run.
func verdict(m bound, c cell, apart bool) string {
	gain := c.Change - c.Parent
	if m.Better == "lower" {
		gain = -gain
	}
	switch {
	case c.N > 0 && c.Wins*10 >= c.N*9 && gain > c.IQR:
		return claimable
	case c.Spread > m.Bound && !apart:
		return unresolved
	case c.Parent != 0 && -gain/c.Parent > m.Bound:
		return outside
	default:
		return inside
	}
}

// quantile is the q-quantile of vs by linear interpolation between order
// statistics (0 for an empty sample); vs is not modified.
func quantile(vs []float64, q float64) float64 {
	if len(vs) == 0 {
		return 0
	}
	s := slices.Clone(vs)
	slices.Sort(s)
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	if lo+1 >= len(s) {
		return s[lo]
	}
	return s[lo] + (s[lo+1]-s[lo])*(pos-float64(lo))
}

// writeTable prints the EXPERIMENTS table: a row per workload, a column
// per bound, and the run count with failures and failed checks.
func writeTable(w io.Writer, l *ledger) {
	fmt.Fprintf(w, "parent %s vs change %s, --seconds %g --trace 0\n\n", short(l.Parent), short(l.Change), l.Seconds)
	fmt.Fprint(w, "| Workload |")
	for _, b := range l.Bounds {
		fmt.Fprintf(w, " `%s` |", b.Name)
	}
	fmt.Fprint(w, "\n|---|")
	for range l.Bounds {
		fmt.Fprint(w, "---|")
	}
	fmt.Fprintln(w)
	for i, c := range l.Cells {
		if i%len(l.Bounds) == 0 {
			fmt.Fprintf(w, "| `%s` |", c.Workload)
		}
		fmt.Fprintf(w, " %s → %s = %.3f× [%.3f], %d/%d, %s |",
			num(c.Parent), num(c.Change), c.Ratio, c.Spread, c.Wins, c.N, c.Verdict)
		if i%len(l.Bounds) == len(l.Bounds)-1 {
			fmt.Fprintln(w)
		}
	}
	var failed int64
	incorrect := 0
	for _, r := range l.Runs {
		failed += r.Result.Failed
		if !r.Result.Correct {
			incorrect++
		}
	}
	fmt.Fprintf(w, "\n%d runs: failed %d, correct false on %d.\n", len(l.Runs), failed, incorrect)
}

// short abbreviates a commit to 12 hex digits, keeping a "+dirty" mark.
func short(rev string) string {
	sha, mark, dirty := strings.Cut(rev, "+")
	sha = sha[:min(12, len(sha))]
	if dirty {
		return sha + "+" + mark
	}
	return sha
}

// num prints v with four significant digits, without an exponent.
func num(v float64) string {
	if v == 0 || math.Abs(v) >= 1e4 {
		return strconv.FormatFloat(v, 'f', 0, 64)
	}
	return strconv.FormatFloat(v, 'f', max(0, 3-int(math.Floor(math.Log10(math.Abs(v))))), 64)
}
