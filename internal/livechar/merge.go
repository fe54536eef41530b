package livechar

import (
	"fmt"
	"time"

	"repro/internal/obs"
)

// This file merges per-node snapshots into one fleet-wide view — the
// jsonfleet /charz aggregation. Every sketch in a Snapshot was chosen
// to be mergeable: HDR sketches merge losslessly bucket-by-bucket,
// Space-Saving tops merge with a provable error bound (see mergeTops),
// rate bins sum after time alignment, and periodicity is recomputed
// from the merged signal rather than naively unioning per-node periods
// (a fleet-wide period only exists in the fleet-wide signal).

// maxMergedBins caps the merged rate-signal length so a node with a
// wildly wrong clock cannot make the merged series unbounded.
const maxMergedBins = 4096

// MergeSnapshots combines per-node snapshots into one fleet-wide
// snapshot labeled node. All inputs must share the window and bin
// configuration. Periodicity is re-detected on the summed rate signal
// with the given seed. Errors on zero inputs or mismatched configs.
func MergeSnapshots(node string, seed uint64, snaps ...Snapshot) (Snapshot, error) {
	if len(snaps) == 0 {
		return Snapshot{}, fmt.Errorf("livechar: no snapshots to merge")
	}
	out := Snapshot{
		Schema:    SnapshotSchema,
		Node:      node,
		WindowSec: snaps[0].WindowSec,
		BinSec:    snaps[0].BinSec,
		Periods:   []Period{},
	}
	var currents, lasts []*WindowStats
	for i := range snaps {
		s := &snaps[i]
		if s.WindowSec != out.WindowSec || s.BinSec != out.BinSec {
			return Snapshot{}, fmt.Errorf("livechar: merge config mismatch: window %gs/bin %gs vs %gs/%gs",
				s.WindowSec, s.BinSec, out.WindowSec, out.BinSec)
		}
		out.Events += s.Events
		out.Drops += s.Drops
		out.Rotations += s.Rotations
		if s.Node != "" {
			out.Nodes = append(out.Nodes, s.Node)
		}
		if s.Current != nil {
			currents = append(currents, s.Current)
		}
		if s.Last != nil {
			lasts = append(lasts, s.Last)
		}
		out.Predict.Eligible += s.Predict.Eligible
		out.Predict.Observations += s.Predict.Observations
		out.Predict.Hits += s.Predict.Hits
		out.Predict.VocabDrops += s.Predict.VocabDrops
		if s.Predict.K > out.Predict.K {
			out.Predict.K = s.Predict.K
		}
		// Node vocabularies overlap, so the sum overcounts; the max is
		// a safe lower bound on the fleet-wide vocabulary.
		if s.Predict.Vocab > out.Predict.Vocab {
			out.Predict.Vocab = s.Predict.Vocab
		}
		// Entropy does not merge exactly without the full distributions;
		// the observation-weighted mean is the published approximation.
		out.Predict.EntropyBits += s.Predict.EntropyBits * float64(s.Predict.Observations)
	}
	if out.Predict.Observations > 0 {
		out.Predict.HitRate = float64(out.Predict.Hits) / float64(out.Predict.Observations)
		out.Predict.EntropyBits /= float64(out.Predict.Observations)
	} else {
		out.Predict.EntropyBits = 0
	}

	var err error
	if out.Current, err = mergeWindowStats(currents); err != nil {
		return Snapshot{}, err
	}
	if out.Last, err = mergeWindowStats(lasts); err != nil {
		return Snapshot{}, err
	}

	out.BinsStart, out.Bins = mergeBins(snaps, out.BinSec)
	if len(out.Bins) > 2 {
		// Trim both edge bins: on live nodes the newest is still filling
		// and the oldest typically started mid-bin, and either partial
		// count is an aperiodic spike that can mask real periodicity.
		bin := time.Duration(out.BinSec * float64(time.Second))
		out.Periods = DetectPeriods(out.Bins[1:len(out.Bins)-1], bin, seed, 3)
	}
	return out, nil
}

// mergeWindowStats merges per-node window characterizations: HDR
// sketches bucket-by-bucket, heavy-hitter tops with the absent-node
// error bound, the window span as the union of node spans. Returns
// nil for no inputs.
func mergeWindowStats(wins []*WindowStats) (*WindowStats, error) {
	if len(wins) == 0 {
		return nil, nil
	}
	size, err := obs.FromHDRSnapshot(wins[0].SizeHDR)
	if err != nil {
		return nil, fmt.Errorf("livechar: rebuilding size sketch: %w", err)
	}
	inter, err := obs.FromHDRSnapshot(wins[0].InterHDR)
	if err != nil {
		return nil, fmt.Errorf("livechar: rebuilding inter-arrival sketch: %w", err)
	}
	out := &WindowStats{Start: wins[0].Start, End: wins[0].End, Events: wins[0].Events}
	objTops := [][]HeavyHitter{wins[0].TopObjects}
	domTops := [][]HeavyHitter{wins[0].TopDomains}
	objMins := []int64{wins[0].SketchMin}
	domMins := []int64{wins[0].DomSketchMin}
	for _, w := range wins[1:] {
		s, err := obs.FromHDRSnapshot(w.SizeHDR)
		if err != nil {
			return nil, fmt.Errorf("livechar: rebuilding size sketch: %w", err)
		}
		if err := size.Merge(s); err != nil {
			return nil, fmt.Errorf("livechar: merging size sketches: %w", err)
		}
		iv, err := obs.FromHDRSnapshot(w.InterHDR)
		if err != nil {
			return nil, fmt.Errorf("livechar: rebuilding inter-arrival sketch: %w", err)
		}
		if err := inter.Merge(iv); err != nil {
			return nil, fmt.Errorf("livechar: merging inter-arrival sketches: %w", err)
		}
		out.Events += w.Events
		if w.Start.Before(out.Start) {
			out.Start = w.Start
		}
		if w.End.After(out.End) {
			out.End = w.End
		}
		objTops = append(objTops, w.TopObjects)
		domTops = append(domTops, w.TopDomains)
		objMins = append(objMins, w.SketchMin)
		domMins = append(domMins, w.DomSketchMin)
	}
	out.SizeHDR = size.Snapshot()
	out.InterHDR = inter.Snapshot()
	// Keep the full union (bounded by nodes × per-node K): a key in any
	// node's top list may rank in the fleet top-K even if another key
	// beats it locally, so truncation here would lose real hitters.
	out.TopObjects = mergeTops(objTops, objMins, 0)
	out.TopDomains = mergeTops(domTops, domMins, 0)
	for _, m := range objMins {
		out.SketchMin += m
	}
	for _, m := range domMins {
		out.DomSketchMin += m
	}
	out.fillQuantiles(size, inter)
	return out, nil
}

// mergeBins sums per-node rate signals after aligning them on absolute
// bin indices (all nodes bin by event time over the same width, so
// alignment is exact). The result spans the union of node ranges,
// zero-filled where a node has no data, capped at maxMergedBins.
func mergeBins(snaps []Snapshot, binSec float64) (time.Time, []int64) {
	binNS := int64(binSec * float64(time.Second))
	if binNS <= 0 {
		return time.Time{}, nil
	}
	first, last := int64(0), int64(0)
	seen := false
	for i := range snaps {
		if len(snaps[i].Bins) == 0 {
			continue
		}
		f := snaps[i].BinsStart.UnixNano() / binNS
		l := f + int64(len(snaps[i].Bins)) - 1
		if !seen {
			first, last, seen = f, l, true
			continue
		}
		if f < first {
			first = f
		}
		if l > last {
			last = l
		}
	}
	if !seen {
		return time.Time{}, nil
	}
	// Clocks far enough apart overflow the span itself; cap that too.
	if n := last - first + 1; n <= 0 || n > maxMergedBins {
		first = last - maxMergedBins + 1
	}
	out := make([]int64, last-first+1)
	for i := range snaps {
		if len(snaps[i].Bins) == 0 {
			continue
		}
		f := snaps[i].BinsStart.UnixNano() / binNS
		for j, c := range snaps[i].Bins {
			idx := f + int64(j) - first
			if idx >= 0 && idx < int64(len(out)) {
				out[idx] += c
			}
		}
	}
	return time.Unix(0, first*binNS).UTC(), out
}
