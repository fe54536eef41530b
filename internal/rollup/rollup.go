// Package rollup aggregates log streams into time-bucketed per-content-
// type counters — the kind of CDN-wide rollup behind Fig. 1, which the
// paper builds from "counts of the total number of JSON and HTML
// requests recorded by all CDN edge servers". A Rollup is mergeable
// across shards and exportable as time series.
package rollup

import (
	"sort"
	"strings"
	"time"

	"repro/internal/logfmt"
	"repro/internal/stats"
)

// Rollup buckets request and byte counts by time interval and content
// type. The zero value is not usable; construct with New. Rollup is not
// safe for concurrent use; shard and Merge instead.
type Rollup struct {
	bucket  time.Duration
	buckets map[int64]*bucketCounters
}

type bucketCounters struct {
	requests map[string]int64
	bytes    map[string]int64
}

// New creates a rollup with the given bucket width (e.g. time.Hour).
// It panics if bucket is not positive.
func New(bucket time.Duration) *Rollup {
	if bucket <= 0 {
		panic("rollup: bucket must be positive")
	}
	return &Rollup{bucket: bucket, buckets: make(map[int64]*bucketCounters)}
}

// Bucket returns the configured bucket width.
func (r *Rollup) Bucket() time.Duration { return r.bucket }

// normalizeMIME strips parameters and lowercases ("Application/JSON;
// charset=utf8" -> "application/json").
func normalizeMIME(mt string) string {
	if mt == "application/json" { // the log decoders' canonical literal
		return mt
	}
	if i := strings.IndexByte(mt, ';'); i >= 0 {
		mt = mt[:i]
	}
	mt = strings.TrimSpace(strings.ToLower(mt))
	if mt == "" {
		return "unknown"
	}
	return mt
}

// Observe folds one record.
func (r *Rollup) Observe(rec *logfmt.Record) {
	key := rec.Time.UnixNano() / int64(r.bucket)
	b := r.buckets[key]
	if b == nil {
		b = &bucketCounters{
			requests: make(map[string]int64),
			bytes:    make(map[string]int64),
		}
		r.buckets[key] = b
	}
	mt := normalizeMIME(rec.MIMEType)
	b.requests[mt]++
	b.bytes[mt] += rec.Bytes
}

// Merge folds other (same bucket width) into r. It panics on mismatched
// widths, which would silently misalign series.
func (r *Rollup) Merge(other *Rollup) {
	if other.bucket != r.bucket {
		panic("rollup: merging mismatched bucket widths")
	}
	for key, ob := range other.buckets {
		b := r.buckets[key]
		if b == nil {
			b = &bucketCounters{
				requests: make(map[string]int64),
				bytes:    make(map[string]int64),
			}
			r.buckets[key] = b
		}
		for mt, n := range ob.requests {
			b.requests[mt] += n
		}
		for mt, n := range ob.bytes {
			b.bytes[mt] += n
		}
	}
}

// NumBuckets returns the number of non-empty buckets.
func (r *Rollup) NumBuckets() int { return len(r.buckets) }

// ContentTypes returns every content type observed, sorted.
func (r *Rollup) ContentTypes() []string {
	set := map[string]struct{}{}
	for _, b := range r.buckets {
		for mt := range b.requests {
			set[mt] = struct{}{}
		}
	}
	out := make([]string, 0, len(set))
	for mt := range set {
		out = append(out, mt)
	}
	sort.Strings(out)
	return out
}

// SeriesPoint is one bucket of one content type's series.
type SeriesPoint struct {
	Start    time.Time
	Requests int64
	Bytes    int64
}

// Series returns the time-ordered request/byte series for a content
// type, with empty interior buckets filled as zeros so the series is
// uniform.
func (r *Rollup) Series(contentType string) []SeriesPoint {
	mt := normalizeMIME(contentType)
	if len(r.buckets) == 0 {
		return nil
	}
	keys := make([]int64, 0, len(r.buckets))
	for k := range r.buckets {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool { return keys[i] < keys[j] })
	first, last := keys[0], keys[len(keys)-1]
	out := make([]SeriesPoint, 0, last-first+1)
	for k := first; k <= last; k++ {
		p := SeriesPoint{Start: time.Unix(0, k*int64(r.bucket)).UTC()}
		if b := r.buckets[k]; b != nil {
			p.Requests = b.requests[mt]
			p.Bytes = b.bytes[mt]
		}
		out = append(out, p)
	}
	return out
}

// Ratio returns the time-ordered ratio of two content types' request
// counts per bucket (0 where the denominator is empty) — the Fig. 1
// computation applied to raw logs.
func (r *Rollup) Ratio(numerator, denominator string) []stats.Point {
	num := r.Series(numerator)
	den := r.Series(denominator)
	out := make([]stats.Point, len(num))
	for i := range num {
		out[i].X = float64(i)
		if i < len(den) && den[i].Requests > 0 {
			out[i].Y = float64(num[i].Requests) / float64(den[i].Requests)
		}
	}
	return out
}

// Total returns the all-bucket request count for a content type.
func (r *Rollup) Total(contentType string) int64 {
	mt := normalizeMIME(contentType)
	var n int64
	for _, b := range r.buckets {
		n += b.requests[mt]
	}
	return n
}
