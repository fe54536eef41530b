package logfmt

import (
	"net/url"
	"strings"
	"testing"
)

// canonicalURLOracle is CanonicalURL without the scan that skips the
// parse: the net/url round trip that defines the canonical form.
func canonicalURLOracle(raw string) string {
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
		u.RawQuery = q.Encode()
	}
	if u.Path == "" {
		u.Path = "/"
	}
	return u.String()
}

// plainURL is the shape 97 % of generated records have, and the one
// isCanonicalURL exists for.
const plainURL = "https://api.sports7.example.com/v1/offer/1000"

func FuzzCanonicalURL(f *testing.F) {
	for _, raw := range []string{
		plainURL,
		"http://example.com/", "https://example.com/a/b.json", "http://a/-._~/A_Z/09",
		// Everything the scan must leave to net/url.
		"HTTPS://Example.COM:443/v1/articles?b=2&a=1",
		"http://example.com:80/", "http://example.com:8080/x", "https://example.com:443",
		"https://user:pw@example.com/", "https://user@example.com/a",
		"https://example.com/%41", "https://example.com/%zz", "https://example.com/a%2Fb", "%%%bad",
		"https://EXAMPLE.com/", "Https://example.com/", "https://example.com/A",
		"https://example.com", "http://", "https:///path", "http:/example.com/", "http//example.com/",
		"https://example.com/a#frag", "https://example.com/#", "https://example.com/a?", "https://example.com/?#",
		"https://example.com/a?b=2&a=1&b=1", "https://example.com/a?z&a=%41&a=+", "https://example.com/a?a=%zz",
		"https://example.com//a//", "https://example.com/a/../b/./c", "https://example.com/a b",
		"https://example.com/a!$&'()*+,;=:@", "https://example.com/é", "https://exämple.com/",
		"https://[::1]/a", "https://[::1]:443/a", "https://exa_mple.com/", "https://example.com\\a",
		"ftp://example.com/a", "//example.com/a", "example.com/a", "/a", "", "https", "https://example.com/\x00",
		"https://example.com/\x7f", "https://-./", "https://./.",
	} {
		f.Add(raw)
	}
	f.Fuzz(func(t *testing.T, raw string) {
		if got, want := CanonicalURL(raw), canonicalURLOracle(raw); got != want {
			t.Errorf("CanonicalURL(%q) = %q, net/url says %q", raw, got, want)
		}
	})
}

func TestCanonicalURLScan(t *testing.T) {
	for _, raw := range []string{plainURL, "http://example.com/", "http://a/-._~/A_Z/09", "https://-./"} {
		if !isCanonicalURL(raw) {
			t.Errorf("isCanonicalURL(%q) = false; the parse it should skip still runs", raw)
		}
	}
	if n := testing.AllocsPerRun(100, func() { CanonicalURL(plainURL) }); n != 0 {
		t.Errorf("CanonicalURL(%q) allocates %v times a call", plainURL, n)
	}
}
