package cdnjson

import (
	"context"
	"encoding/json"
	"errors"
	"io"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"strconv"
	"strings"
	"syscall"
	"testing"
	"time"

	"repro/internal/edge"
	"repro/internal/logfmt"
	"repro/internal/obs"
)

// TestCLIPipeline builds the three tools a user chains and drives the
// workflow through their file formats: generate a dataset, then run the
// §4 characterization and every jsonchar subcommand (periodicity,
// prediction, prefetching, anomalies) over it. It then converts the
// dataset to TSV, appends garbage lines, and checks that every analysis
// quarantines them under the default error budget and fails on a budget
// below their share.
func TestCLIPipeline(t *testing.T) {
	if testing.Short() {
		t.Skip("CLI pipeline test builds binaries; skipped in -short")
	}
	bin, work := t.TempDir(), t.TempDir()
	for _, tool := range []string{"jsongen", "jsonchar", "jsonconvert"} {
		out, err := exec.Command("go", "build", "-o", filepath.Join(bin, tool), "./cmd/"+tool).CombinedOutput()
		if err != nil {
			t.Fatalf("building %s: %v\n%s", tool, err, out)
		}
	}
	// Tools run in a scratch directory, so that the characterization's
	// run manifest lands there.
	exe := func(tool string, args ...string) (stdout, stderr string, err error) {
		cmd := exec.Command(filepath.Join(bin, tool), args...)
		cmd.Dir = work
		var o, e strings.Builder
		cmd.Stdout, cmd.Stderr = &o, &e
		err = cmd.Run()
		return o.String(), e.String(), err
	}
	run := func(tool string, args ...string) (stdout, stderr string) {
		t.Helper()
		stdout, stderr, err := exe(tool, args...)
		if err != nil {
			t.Fatalf("%s %v: %v\n%s%s", tool, args, err, stdout, stderr)
		}
		return stdout, stderr
	}

	data := filepath.Join(t.TempDir(), "pattern.cdnc")
	run("jsongen", "-preset", "long", "-duration", "45m", "-target", "30000",
		"-domains", "20", "-seed", "5", "-o", data)
	if fi, err := os.Stat(data); err != nil || fi.Size() == 0 {
		t.Fatalf("dataset not written: %v", err)
	}

	// Each analysis, and lines its report holds exactly once.
	analyses := []struct {
		args []string
		want []string
	}{
		{nil, []string{"Traffic source", "GET (download)", "Figure 4 heatmap", "Figure 2"}},
		{[]string{"period", "-x", "25", "-bin", "2s"}, []string{"periodic requests:"}},
		{[]string{"predict", "-k", "1,5"}, []string{"Clustered URLs"}},
		{[]string{"prefetch", "-k", "1,2"}, []string{"baseline", "prefetch K=1", "prefetch K=2"}},
		{[]string{"anomaly", "-top", "3"}, []string{"scanned"}},
	}
	check := func(args []string, out string, want []string) {
		t.Helper()
		for _, w := range want {
			if n := strings.Count(out, w); n != 1 {
				t.Errorf("jsonchar %v: %q appears %d times, want once:\n%.600s", args, w, n, out)
			}
		}
	}
	for _, a := range analyses {
		args := append(append([]string{}, a.args...), "-i", data)
		out, _ := run("jsonchar", args...)
		check(args, out, a.want)
	}

	_, stderr, err := exe("jsonchar", "anomaly", "-i", data, "-top", "-1")
	var exit *exec.ExitError
	if !errors.As(err, &exit) || exit.ExitCode() != 2 || strings.Contains(stderr, "panic:") || !strings.Contains(stderr, "-top must be >= 0") {
		t.Errorf("jsonchar anomaly -top -1: %v, want a usage error (exit 2)\n%s", err, stderr)
	}

	// The retired binary stream is refused, naming its replacement:
	// jsongen will not write one, and jsonchar will not read one even
	// under a text name.
	stream := filepath.Join(t.TempDir(), "old.tsv")
	f, err := os.Create(stream)
	if err != nil {
		t.Fatal(err)
	}
	w := logfmt.NewBinaryWriter(f)
	rec := logfmt.Record{Time: time.Date(2019, 5, 1, 0, 0, 0, 0, time.UTC), Method: "GET",
		URL: "https://api.example.com/v1", MIMEType: "application/json", Status: 200, Bytes: 512}
	for i := 0; i < 100; i++ {
		w.Write(&rec)
	}
	if err := errors.Join(w.Close(), f.Close()); err != nil {
		t.Fatal(err)
	}
	for _, c := range [][]string{
		{"jsongen", "-target", "100", "-o", filepath.Join(t.TempDir(), "x.cdnb")},
		{"jsonchar", "-i", stream},
	} {
		if _, stderr, err := exe(c[0], c[1:]...); err == nil || !strings.Contains(stderr, ".cdnc") {
			t.Errorf("%v on the retired binary stream: %v, want a failure naming .cdnc\n%s", c, err, stderr)
		}
	}

	// Transcode binary -> TSV with JSON filtering, then corrupt the tail:
	// five bad lines in ≈21 k records is 0.02 %.
	tsv := filepath.Join(t.TempDir(), "json.tsv")
	run("jsonconvert", "-i", data, "-o", tsv, "-json-only")
	f, err = os.OpenFile(tsv, os.O_APPEND|os.O_WRONLY, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.WriteString(strings.Repeat("not\ta\tlog\tline\n", 5)); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	for _, a := range analyses {
		args := append(append([]string{}, a.args...), "-i", tsv)
		out, stderr := run("jsonchar", args...)
		check(args, out, a.want)
		if !strings.Contains(stderr, "records quarantined") || !strings.Contains(stderr, "quarantined=5 ") {
			t.Errorf("jsonchar %v on corrupt input: no quarantine report on stderr:\n%s", args, stderr)
		}
		args = append(args, "-max-error-rate", "0.0001")
		if _, stderr, err := exe("jsonchar", args...); err == nil || !strings.Contains(stderr, "corrupt-record budget exceeded") {
			t.Errorf("jsonchar %v on corrupt input: %v, want the budget error\n%s", args, err, stderr)
		}
	}
}

// TestJSONReproSmoke builds cmd/jsonrepro and runs a two-exhibit subset:
// both sections print under their table titles and the run manifest's
// step ledger holds exactly those two, completed.
func TestJSONReproSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("jsonrepro smoke test builds a binary; skipped in -short")
	}
	bin := filepath.Join(t.TempDir(), "jsonrepro")
	if out, err := exec.Command("go", "build", "-o", bin, "./cmd/jsonrepro").CombinedOutput(); err != nil {
		t.Fatalf("building jsonrepro: %v\n%s", err, out)
	}
	dir := t.TempDir()
	cmd := exec.Command(bin, "-only", "fig1,table2", "-j", "1", "-scale", "0.0002", "-manifest-dir", dir)
	var stderr strings.Builder
	cmd.Stderr = &stderr
	out, err := cmd.Output()
	if err != nil {
		t.Fatalf("jsonrepro: %v\n%s\n%s", err, out, stderr.String())
	}
	titles := []string{"Figure 1", "Table 2"}
	for _, title := range titles {
		if !strings.Contains(string(out), "\n== "+title+" ==\n") {
			t.Errorf("output has no %q section:\n%s", title, out)
		}
	}

	files, _ := filepath.Glob(filepath.Join(dir, "run-*.json"))
	if len(files) != 1 {
		t.Fatalf("manifests in %s = %v, want one", dir, files)
	}
	data, err := os.ReadFile(files[0])
	if err != nil {
		t.Fatal(err)
	}
	var man obs.Manifest
	if err := json.Unmarshal(data, &man); err != nil {
		t.Fatal(err)
	}
	if man.Outcome != "completed" || len(man.Steps) != len(titles) {
		t.Fatalf("manifest outcome %q with steps %+v, want completed with %v", man.Outcome, man.Steps, titles)
	}
	for i, st := range man.Steps {
		if st.Name != titles[i] || st.Status != "completed" {
			t.Errorf("manifest step %d = %+v, want %q completed", i, st, titles[i])
		}
	}
}

// TestLiveEdgeSmoke builds cmd/liveedge and runs its self-driven mode
// against a faulty origin with the characterization plane on: real
// sockets, real retries, and — in the run's closing outage — serve-stale
// answered from the cache's own entries.
func TestLiveEdgeSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("liveedge smoke test builds a binary; skipped in -short")
	}
	bin := filepath.Join(t.TempDir(), "liveedge")
	if out, err := exec.Command("go", "build", "-o", bin, "./cmd/liveedge").CombinedOutput(); err != nil {
		t.Fatalf("building liveedge: %v\n%s", err, out)
	}
	cmd := exec.Command(bin, "-fault-rate", "0.3", "-livechar", "-out-dir", t.TempDir())
	var stderr strings.Builder
	cmd.Stderr = &stderr
	out, err := cmd.Output()
	if err != nil {
		t.Fatalf("liveedge: %v\n%s\n%s", err, out, stderr.String())
	}
	m := regexp.MustCompile(`(\d+) stale serves`).FindSubmatch(out)
	if m == nil {
		t.Fatalf("no stale-serve count in output:\n%s", out)
	}
	if n, _ := strconv.Atoi(string(m[1])); n == 0 {
		t.Errorf("0 stale serves: the outage act was not served from the cache\n%s", out)
	}
	for _, want := range []string{"edge cache hit ratio:", "live characterization", "edge_stale_serves_total"} {
		if !strings.Contains(string(out), want) {
			t.Errorf("output missing %q:\n%s", want, out)
		}
	}
}

// TestJSONFleetSmoke builds cmd/liveedge and cmd/jsonfleet and runs a
// two-node fleet over real processes: the URL-file handshake publishes
// the front, one path through the front lands on one named node and is a
// cache hit the second time, /fleetz shows both members live, and SIGTERM
// exits 0 inside the drain window.
func TestJSONFleetSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("jsonfleet smoke test builds binaries and spawns processes; skipped in -short")
	}
	dir := t.TempDir()
	for _, tool := range []string{"liveedge", "jsonfleet"} {
		if out, err := exec.Command("go", "build", "-o", filepath.Join(dir, tool), "./cmd/"+tool).CombinedOutput(); err != nil {
			t.Fatalf("building %s: %v\n%s", tool, err, out)
		}
	}
	urlFile := filepath.Join(dir, "fleet.url")
	cmd := exec.Command(filepath.Join(dir, "jsonfleet"), "-nodes", "2",
		"-node-bin", filepath.Join(dir, "liveedge"), "-url-file", urlFile, "-work", dir)
	var stderr strings.Builder
	cmd.Stderr = &stderr
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	var waitErr error
	exited := make(chan struct{})
	go func() { waitErr = cmd.Wait(); close(exited) }()
	t.Cleanup(func() {
		// A failed run can leave the supervisor up: SIGTERM lets it reap
		// its nodes before it goes.
		cmd.Process.Signal(syscall.SIGTERM)
		select {
		case <-exited:
		case <-time.After(5 * time.Second):
			cmd.Process.Kill()
		}
	})

	urls, err := edge.AwaitURLFile(context.Background(), urlFile, 20*time.Second)
	if err != nil || len(urls) < 2 {
		t.Fatalf("URL-file handshake: %v %v\n%s", urls, err, stderr.String())
	}
	front, admin := urls[0], urls[1]
	get := func(url string) (*http.Response, []byte) {
		t.Helper()
		resp, err := http.Get(url)
		if err != nil {
			t.Fatalf("GET %s: %v\n%s", url, err, stderr.String())
		}
		defer resp.Body.Close()
		body, _ := io.ReadAll(resp.Body)
		return resp, body
	}

	first, _ := get(front + "/stories")
	second, _ := get(front + "/stories")
	node := first.Header.Get("X-Fleet-Node")
	if first.StatusCode != 200 || second.StatusCode != 200 || node == "" || second.Header.Get("X-Fleet-Node") != node {
		t.Errorf("same path answered %d by %q, then %d by %q; want 200 from one named node",
			first.StatusCode, node, second.StatusCode, second.Header.Get("X-Fleet-Node"))
	}
	if got := second.Header.Get("X-Cache"); got != "HIT" {
		t.Errorf("second GET X-Cache = %q (first %q), want HIT", got, first.Header.Get("X-Cache"))
	}

	var fleetz struct {
		Live    int               `json:"live"`
		Members []json.RawMessage `json:"members"`
	}
	if _, body := get(admin + "/fleetz"); json.Unmarshal(body, &fleetz) != nil || fleetz.Live != 2 || len(fleetz.Members) != 2 {
		t.Errorf("/fleetz = %s, want 2 live members", body)
	}

	if err := cmd.Process.Signal(syscall.SIGTERM); err != nil {
		t.Fatal(err)
	}
	select {
	case <-exited:
		if waitErr != nil {
			t.Errorf("jsonfleet after SIGTERM: %v, want exit 0\n%s", waitErr, stderr.String())
		}
	case <-time.After(10 * time.Second):
		t.Errorf("jsonfleet still running 10s after SIGTERM\n%s", stderr.String())
	}
}
