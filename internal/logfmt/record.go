// Package logfmt defines the CDN edge-server request log record used
// throughout the reproduction and its on-disk encodings.
//
// The schema mirrors the fields the paper collects from Akamai edge
// servers (§3.1): request time, anonymized (hashed) client IP, select HTTP
// request/response headers (user agent, MIME type, method, URL), response
// size, and object caching information. Three encodings are provided: a
// compact tab-separated line format (the native format of the tools in
// cmd/), JSON Lines for interchange, and the chunk container, the one
// binary format, for large datasets. All stream: text readers and
// writers hold one record in memory, the chunk container one chunk.
// CreateFile is the one way to create a log file; package ingest's
// FileSource is the one way to read one.
package logfmt

import (
	"errors"
	"fmt"
	"hash/fnv"
	"net/url"
	"strconv"
	"strings"
	"time"
	"unicode/utf8"
)

// CacheStatus describes how the edge served a response, as recorded by
// the CDN cache logs (§3.2 "Response Type").
type CacheStatus uint8

const (
	// CacheUncacheable marks responses the customer configured as not
	// cacheable; they are always tunneled to origin.
	CacheUncacheable CacheStatus = iota
	// CacheHit marks responses served from the edge cache.
	CacheHit
	// CacheMiss marks cacheable responses that were not in cache and were
	// fetched from origin.
	CacheMiss
)

var cacheStatusNames = [...]string{"uncacheable", "hit", "miss"}

// String returns the lowercase wire name of the status.
func (s CacheStatus) String() string {
	if int(s) < len(cacheStatusNames) {
		return cacheStatusNames[s]
	}
	return fmt.Sprintf("CacheStatus(%d)", uint8(s))
}

// ParseCacheStatus parses the wire name of a cache status.
func ParseCacheStatus(s string) (CacheStatus, error) {
	for i, n := range cacheStatusNames {
		if s == n {
			return CacheStatus(i), nil
		}
	}
	return 0, fmt.Errorf("logfmt: unknown cache status %q", s)
}

// Cacheable reports whether the response was eligible for edge caching.
func (s CacheStatus) Cacheable() bool { return s == CacheHit || s == CacheMiss }

// Record is one edge-server request log line.
type Record struct {
	// Time is the edge server's receipt time of the request.
	Time time.Time
	// ClientID is the anonymized client identity: a hash of the client IP
	// (the paper hashes IPs for anonymity; client-object flows are keyed
	// by (ClientID, UserAgent) pairs).
	ClientID uint64
	// Method is the HTTP request method (GET, POST, ...).
	Method string
	// URL is the full request URL (scheme optional, host required).
	URL string
	// UserAgent is the raw User-Agent request header; empty if absent.
	UserAgent string
	// MIMEType is the response Content-Type (e.g. "application/json").
	MIMEType string
	// Status is the HTTP response status code.
	Status int
	// Bytes is the response body size in bytes.
	Bytes int64
	// Cache is the edge cache disposition of the response.
	Cache CacheStatus
}

// Host returns the host part of the record URL, lower-cased, or "" if
// unparseable. The authority is what follows the URL's first "://"
// (the whole URL when it has none) up to its first '/', '?' or '#';
// the host is the part of it after the last '@' and before the next
// ':'. Host is on every §4 observer's per-record path, so it walks the
// authority once and returns a substring of the URL, allocating only
// when the host has an upper-case or non-ASCII byte to fold.
func (r *Record) Host() string {
	u := r.URL
	if i := strings.Index(u, "://"); i >= 0 {
		u = u[i+3:]
	}
	start, end, fold := 0, -1, false
scan:
	for i := 0; i < len(u); i++ {
		switch hostBytes[u[i]] {
		case hostEnd:
			u = u[:i]
			break scan
		case hostAt: // userinfo: the host starts after the last one
			start, end, fold = i+1, -1, false
		case hostColon:
			if end < 0 {
				end = i
			}
		case hostFold:
			if end < 0 {
				fold = true
			}
		}
	}
	if end < 0 {
		end = len(u)
	}
	if fold {
		return strings.ToLower(u[start:end])
	}
	return u[start:end]
}

// Byte classes of Host's scan.
const (
	hostPlain = iota
	hostEnd   // '/', '?', '#': the authority ends
	hostAt    // '@': userinfo ends
	hostColon // ':': the port starts
	hostFold  // upper-case ASCII or a non-ASCII byte
)

var hostBytes = func() (t [256]uint8) {
	t['/'], t['?'], t['#'] = hostEnd, hostEnd, hostEnd
	t['@'], t[':'] = hostAt, hostColon
	for c := 'A'; c <= 'Z'; c++ {
		t[c] = hostFold
	}
	for c := utf8.RuneSelf; c < 256; c++ {
		t[c] = hostFold
	}
	return t
}()

// Path returns the path-and-query part of the record URL (at least "/").
func (r *Record) Path() string {
	u := r.URL
	if i := strings.Index(u, "://"); i >= 0 {
		u = u[i+3:]
	}
	if i := strings.IndexByte(u, '/'); i >= 0 {
		return u[i:]
	}
	return "/"
}

// IsJSON reports whether the response MIME type is application/json
// (ignoring parameters such as charset), the filter the paper applies to
// isolate JSON traffic.
func (r *Record) IsJSON() bool {
	mt := r.MIMEType
	if mt == "application/json" { // the decoders' canonical literal
		return true
	}
	if i := strings.IndexByte(mt, ';'); i >= 0 {
		mt = mt[:i]
	}
	return strings.TrimSpace(strings.ToLower(mt)) == "application/json"
}

// IsDownload reports whether the request retrieves data (GET; §3.2
// "Request Type" assumes conventional method semantics per RFC 7231).
func (r *Record) IsDownload() bool { return r.Method == "GET" }

// IsUpload reports whether the request sends data (POST).
func (r *Record) IsUpload() bool { return r.Method == "POST" }

// Validate reports the first structural problem with the record, or nil.
func (r *Record) Validate() error {
	switch {
	case r.Time.IsZero():
		return errors.New("logfmt: record has zero time")
	case r.Method == "":
		return errors.New("logfmt: record has empty method")
	case r.URL == "":
		return errors.New("logfmt: record has empty URL")
	case r.Host() == "":
		return fmt.Errorf("logfmt: record URL %q has no host", r.URL)
	case r.Status < 100 || r.Status > 599:
		return fmt.Errorf("logfmt: record has invalid status %d", r.Status)
	case r.Bytes < 0:
		return fmt.Errorf("logfmt: record has negative size %d", r.Bytes)
	default:
		return nil
	}
}

// HashClientIP derives an anonymized ClientID from an IP string, matching
// the paper's IP hashing for anonymity. The hash is deterministic
// (FNV-1a) so the same client maps to the same ID across datasets.
func HashClientIP(ip string) uint64 {
	h := fnv.New64a()
	h.Write([]byte(ip))
	return h.Sum64()
}

// CanonicalURL normalizes a URL for flow keying: lowercases scheme and
// host, strips default ports and fragments, and sorts query parameters.
// Invalid URLs are returned unchanged.
func CanonicalURL(raw string) string {
	if isCanonicalURL(raw) {
		return raw
	}
	u, err := url.Parse(raw)
	if err != nil || u.Host == "" {
		return raw
	}
	u.Scheme = strings.ToLower(u.Scheme)
	u.Host = strings.ToLower(u.Host)
	if h, p, ok := strings.Cut(u.Host, ":"); ok {
		if (u.Scheme == "https" && p == "443") || (u.Scheme == "http" && p == "80") {
			u.Host = h
		}
	}
	u.Fragment = ""
	if u.RawQuery != "" {
		q := u.Query()
		u.RawQuery = q.Encode() // Encode sorts keys
	}
	if u.Path == "" {
		u.Path = "/"
	}
	return u.String()
}

// isCanonicalURL reports, in one scan and without parsing, that raw has
// the plain shape the net/url round trip in CanonicalURL hands back
// byte for byte: a lower-case http or https scheme, a non-empty
// lower-case host with neither port nor userinfo, and a non-empty path
// of unreserved bytes and '/' with no query, fragment or escape. It may
// say no to a URL that is canonical; it never says yes to one that is not.
func isCanonicalURL(raw string) bool {
	rest, ok := strings.CutPrefix(raw, "http")
	if !ok {
		return false
	}
	rest = strings.TrimPrefix(rest, "s")
	rest, ok = strings.CutPrefix(rest, "://")
	if !ok {
		return false
	}
	i := 0
	for i < len(rest) && urlBytes[rest[i]]&urlHostByte != 0 {
		i++
	}
	if i == 0 || i == len(rest) || rest[i] != '/' {
		return false
	}
	for ; i < len(rest); i++ {
		if urlBytes[rest[i]]&urlPathByte == 0 {
			return false
		}
	}
	return true
}

const (
	urlHostByte = 1 << iota // a-z 0-9 - .
	urlPathByte             // RFC 3986 unreserved, and /
)

var urlBytes = func() (t [256]uint8) {
	for b := 'a'; b <= 'z'; b++ {
		t[b] = urlHostByte | urlPathByte
		t[b-'a'+'A'] = urlPathByte
	}
	for b := '0'; b <= '9'; b++ {
		t[b] = urlHostByte | urlPathByte
	}
	t['-'], t['.'] = urlHostByte|urlPathByte, urlHostByte|urlPathByte
	t['_'], t['~'], t['/'] = urlPathByte, urlPathByte, urlPathByte
	return t
}()

const timeLayout = time.RFC3339Nano

func formatTime(t time.Time) string { return t.UTC().Format(timeLayout) }

func parseTime(s string) (time.Time, error) { return time.Parse(timeLayout, s) }

func formatClientID(id uint64) string { return strconv.FormatUint(id, 16) }

func parseClientID(s string) (uint64, error) { return strconv.ParseUint(s, 16, 64) }
