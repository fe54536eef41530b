package edge

import (
	"encoding/binary"
	"encoding/hex"
	"hash/fnv"
	"strconv"
	"strings"
	"time"
)

// WildcardOrigin answers every path, so replayed synthetic streams —
// whose URLs the manifest-shaped JSONOrigin does not know — exercise
// the full cache hit/miss/uncacheable mix instead of collapsing into
// 404s. It first delegates to Inner (when set) and synthesizes a
// deterministic JSON body for anything Inner rejects: the body size
// and content derive from the hash of the full path including any
// query string, so the same URL always yields the same object while
// query variants are distinct resources — a cache-busting replay sees
// real per-variant origin work instead of colliding on path alone.
// Cacheability is decided on the query-stripped path.
type WildcardOrigin struct {
	// Inner, if non-nil, is consulted first; its successes pass
	// through untouched.
	Inner Origin
	// Latency simulates origin round-trip delay per synthesized fetch
	// (Inner applies its own).
	Latency time.Duration
}

// Fetch implements Origin.
func (o *WildcardOrigin) Fetch(path string) ([]byte, string, bool, error) {
	if o.Inner != nil {
		if body, mime, cacheable, err := o.Inner.Fetch(path); err == nil {
			return body, mime, cacheable, nil
		}
	}
	if o.Latency > 0 {
		time.Sleep(o.Latency)
	}
	h := fnv.New64a()
	h.Write([]byte(path))
	sum := h.Sum64()
	// 200 B .. ~4 KiB, matching the paper's JSON-object size band. The
	// filler runs up to 15 bytes past size and two bytes close the body.
	size := 200 + int(sum%4096)
	b := make([]byte, 0, size+15+2)
	b = append(b, `{"path":`...)
	b = strconv.AppendQuote(b, path)
	b = append(b, `,"object":"`...)
	b = appendHex16(b, sum)
	b = append(b, `","data":"`...)
	for len(b) < size {
		b = appendHex16(b, sum)
		sum = sum*0x100000001b3 + 0x9e3779b9
	}
	b = append(b, `"}`...)
	// Telemetry and personalized paths stay uncacheable, mirroring the
	// paper's uncacheable JSON share; everything else is cacheable. The
	// prefix test uses the query-stripped path so "?x=/profile/" games
	// nothing.
	base := path
	if i := strings.IndexByte(base, '?'); i >= 0 {
		base = base[:i]
	}
	cacheable := !strings.HasPrefix(base, "/ingest/") && !strings.HasPrefix(base, "/profile/")
	return b, "application/json", cacheable, nil
}

// appendHex16 appends v as 16 lower-case hex digits.
func appendHex16(b []byte, v uint64) []byte {
	var raw [8]byte
	binary.BigEndian.PutUint64(raw[:], v)
	return hex.AppendEncode(b, raw[:])
}
