package fleet

import (
	"bytes"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"testing"

	"repro/internal/obs"
)

// stubTransport answers every request with a 200 of the given size, so
// that the front's own cost is all that is left.
type stubTransport struct{ body []byte }

func (s stubTransport) RoundTrip(*http.Request) (*http.Response, error) {
	return &http.Response{
		StatusCode:    http.StatusOK,
		Header:        http.Header{"Content-Type": {"application/json"}, "X-Cache": {"HIT"}, "Etag": {`"5f0c2a9d11e4b7a3"`}},
		Body:          io.NopCloser(bytes.NewReader(s.body)),
		ContentLength: int64(len(s.body)),
	}, nil
}

// stubFront is an instrumented two-member front over a stub transport
// and a request as the bench client would send it.
func stubFront(size int) (*Fleet, *http.Request) {
	f := New(Config{Transport: stubTransport{body: bytes.Repeat([]byte("x"), size)}},
		&Member{Name: "edge-00", URL: "http://node0.invalid"},
		&Member{Name: "edge-01", URL: "http://node1.invalid"})
	f.Instrument(obs.NewRegistry())
	r := httptest.NewRequest(http.MethodGet, "http://bench.invalid/v1/stories?page=1", nil)
	r.Header.Set("User-Agent", "NewsApp/3.1 (iPhone; iOS 12.2)")
	r.Header.Set("X-Client-Id", "00000000000000a1")
	return f, r
}

// BenchmarkFrontServeHTTP is the front tier's own cost a request: route,
// build the upstream request, filter headers both ways, relay the body.
func BenchmarkFrontServeHTTP(b *testing.B) {
	for _, size := range []int{600, 4 << 10} {
		b.Run(fmt.Sprintf("body=%d", size), func(b *testing.B) {
			f, r := stubFront(size)
			b.ReportAllocs()
			b.SetBytes(int64(size))
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				w := httptest.NewRecorder()
				f.ServeHTTP(w, r)
				if w.Code != http.StatusOK || w.Body.Len() != size {
					b.Fatalf("status %d, %d body bytes", w.Code, w.Body.Len())
				}
			}
		})
	}
}
