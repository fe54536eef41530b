package livechar

import (
	"encoding/json"
	"fmt"
	"testing"
	"time"

	"repro/internal/obs"
)

// nodeSnapshots returns two real node snapshots over one deterministic
// stream, as a fleet front would fetch them from its nodes' /charz.
func nodeSnapshots() (Snapshot, Snapshot) {
	a := New(Config{Window: 20 * time.Second, Bin: time.Second, TopK: 5, Node: "n1"})
	b := New(Config{Window: 20 * time.Second, Bin: time.Second, TopK: 5, Node: "n2"})
	for i := 0; i < 200; i++ {
		r := rec(testBase.Add(time.Duration(i)*50*time.Millisecond), uint64(i%6),
			fmt.Sprintf("http://api.example.com/obj/%d", i%4), int64(100*(i%10+1)))
		if i%2 == 0 {
			a.Observe(r)
		} else {
			b.Observe(r)
		}
	}
	return a.Snapshot(), b.Snapshot()
}

// TestMergeSnapshotsForeignSketch feeds MergeSnapshots node snapshots
// whose HDR sketches no local histogram could have produced; each must
// be refused with an error, never a panic.
func TestMergeSnapshotsForeignSketch(t *testing.T) {
	for name, hdr := range map[string]obs.HDRSnapshot{
		"sigfigs 6":            {Lowest: 1, Highest: 1 << 20, SigFigs: 6},
		"highest < 2*lowest":   {Lowest: 10, Highest: 15, SigFigs: 2},
		"2*lowest overflows":   {Lowest: 1 << 62, Highest: 1 << 62, SigFigs: 2},
		"lowest too large":     {Lowest: 1 << 58, Highest: 1 << 60, SigFigs: 2},
		"bucket out of range":  {Lowest: 1, Highest: 1 << 20, SigFigs: 2, Buckets: [][2]int64{{1 << 40, 1}}},
		"negative bucket size": {Lowest: 1, Highest: 1 << 20, SigFigs: 2, Buckets: [][2]int64{{3, -1}}},
	} {
		t.Run(name, func(t *testing.T) {
			a, b := nodeSnapshots()
			b.Current.SizeHDR = hdr
			if _, err := MergeSnapshots("fleet", 1, a, b); err == nil {
				t.Error("merge accepted a foreign sketch")
			}
		})
	}
}

// FuzzMergeSnapshots merges two decoded /charz payloads. A merge must
// never panic, and a merge it accepts must keep each sketch's count
// equal to its bucket total and to the inputs' bucket totals combined.
func FuzzMergeSnapshots(f *testing.F) {
	a, b := nodeSnapshots()
	ja, _ := json.Marshal(a)
	jb, _ := json.Marshal(b)
	f.Add(ja, jb)
	f.Add(jb, ja)
	f.Add(ja, []byte(`{"window_sec":20,"bin_sec":1,"current":{"size_bytes_hdr":{"lowest":10,"highest":15,"sigfigs":2}}}`))
	// Node clocks at the two ends of the int64-nanosecond range.
	f.Add([]byte(`{"window_sec":20,"bin_sec":1e-9,"bins_start":"1678-01-01T00:00:00Z","bins":[1,2,3]}`),
		[]byte(`{"window_sec":20,"bin_sec":1e-9,"bins_start":"2262-01-01T00:00:00Z","bins":[4,5,6]}`))
	f.Fuzz(func(t *testing.T, da, db []byte) {
		var sa, sb Snapshot
		if json.Unmarshal(da, &sa) != nil || json.Unmarshal(db, &sb) != nil {
			return
		}
		merged, err := MergeSnapshots("fleet", 1, sa, sb)
		if err != nil {
			return
		}
		for _, w := range []struct {
			name     string
			out      *WindowStats
			in1, in2 *WindowStats
		}{
			{"current", merged.Current, sa.Current, sb.Current},
			{"last", merged.Last, sa.Last, sb.Last},
		} {
			if w.out == nil {
				continue
			}
			for _, h := range []struct {
				name string
				get  func(*WindowStats) obs.HDRSnapshot
			}{
				{"size", func(ws *WindowStats) obs.HDRSnapshot { return ws.SizeHDR }},
				{"interarrival", func(ws *WindowStats) obs.HDRSnapshot { return ws.InterHDR }},
			} {
				var want int64
				for _, in := range []*WindowStats{w.in1, w.in2} {
					if in != nil {
						want += bucketTotal(h.get(in))
					}
				}
				got := h.get(w.out)
				if got.Count != bucketTotal(got) || got.Count != want {
					t.Fatalf("%s %s sketch: count %d, bucket total %d, inputs' buckets %d",
						w.name, h.name, got.Count, bucketTotal(got), want)
				}
			}
		}
	})
}

func bucketTotal(s obs.HDRSnapshot) int64 {
	var n int64
	for _, b := range s.Buckets {
		n += b[1]
	}
	return n
}
