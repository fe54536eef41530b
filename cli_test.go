package cdnjson

import (
	"context"
	"encoding/json"
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
	"repro/internal/obs"
)

// TestCLIPipeline builds every command and drives the full workflow a
// user would run: generate a dataset, characterize it, analyze
// periodicity, evaluate prediction, simulate prefetching, and scan for
// anomalies. It is an end-to-end check that the binaries compose through
// their file formats.
func TestCLIPipeline(t *testing.T) {
	if testing.Short() {
		t.Skip("CLI pipeline test builds binaries; skipped in -short")
	}
	bin := t.TempDir()
	tools := []string{"jsongen", "jsonchar", "jsonperiod", "jsonpredict", "jsonprefetch", "jsonanomaly", "jsonconvert"}
	for _, tool := range tools {
		out, err := exec.Command("go", "build", "-o", filepath.Join(bin, tool), "./cmd/"+tool).CombinedOutput()
		if err != nil {
			t.Fatalf("building %s: %v\n%s", tool, err, out)
		}
	}
	run := func(tool string, args ...string) string {
		t.Helper()
		cmd := exec.Command(filepath.Join(bin, tool), args...)
		out, err := cmd.CombinedOutput()
		if err != nil {
			t.Fatalf("%s %v: %v\n%s", tool, args, err, out)
		}
		return string(out)
	}

	data := filepath.Join(t.TempDir(), "pattern.cdnb.gz")
	run("jsongen", "-preset", "long", "-duration", "45m", "-target", "30000",
		"-domains", "20", "-seed", "5", "-o", data)
	if fi, err := os.Stat(data); err != nil || fi.Size() == 0 {
		t.Fatalf("dataset not written: %v", err)
	}

	char := run("jsonchar", "-i", data)
	for _, want := range []string{"Traffic source", "GET (download)", "Figure 4 heatmap", "Figure 2"} {
		if !strings.Contains(char, want) {
			t.Errorf("jsonchar output missing %q", want)
		}
	}

	period := run("jsonperiod", "-i", data, "-x", "25", "-bin", "2s")
	if !strings.Contains(period, "periodic requests:") {
		t.Errorf("jsonperiod output malformed:\n%.400s", period)
	}

	predict := run("jsonpredict", "-i", data, "-k", "1,5")
	if !strings.Contains(predict, "Clustered URLs") {
		t.Errorf("jsonpredict output malformed:\n%.400s", predict)
	}

	pf := run("jsonprefetch", "-i", data, "-k", "1,2")
	if strings.Count(pf, "baseline") != 1 || !strings.Contains(pf, "prefetch K=1") || !strings.Contains(pf, "prefetch K=2") {
		t.Errorf("jsonprefetch output malformed (want one baseline row, then K=1 and K=2):\n%.600s", pf)
	}

	an := run("jsonanomaly", "-train", data, "-top", "3")
	if !strings.Contains(an, "scanned") {
		t.Errorf("jsonanomaly output malformed:\n%.400s", an)
	}

	// Transcode binary -> TSV with JSON filtering and re-analyze.
	tsv := filepath.Join(t.TempDir(), "json.tsv.gz")
	run("jsonconvert", "-i", data, "-o", tsv, "-json-only")
	char2 := run("jsonchar", "-i", tsv)
	if !strings.Contains(char2, "Traffic source") {
		t.Errorf("converted file unreadable:\n%.300s", char2)
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
