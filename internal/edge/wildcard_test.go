package edge

import "testing"

// TestWildcardOriginBodiesPinned holds synthesized bodies to the exact
// bytes earlier versions produced: replay comparisons and cached
// objects depend on a URL always mapping to the same object. One path is
// plain, one carries a query string, one needs quoting.
func TestWildcardOriginBodiesPinned(t *testing.T) {
	cases := []struct {
		path      string
		cacheable bool
		body      string
	}{
		{
			"/api/v1/articles/36", true,
			`{"path":"/api/v1/articles/36","object":"d95a4f31fa37a044","data":"d95a4f31fa37a0448c14d5eccabccd45c434c65d1d0845f86df30838f3465e211a5519c5fec96bcc880697708e79a55d9cd8b142b6eb76c06fabf45d705241f9137233c679fd93d408a1ce41e819aaf5c49c6efe01d4f808eac8a19dbb18ef510bd9f0058996205c"}`,
		},
		{
			"/profile/user?id=18&tab=feed", false,
			`{"path":"/profile/user?id=18&tab=feed","object":"383dc032bfdc0017","data":"383dc032bfdc00176cedad3ca10ba0ce237e2c0644f9b7c3491c91a7d28aba12c645922b5ff1a64fd9ddaeb4a5d511f608c1d2f66744febb265833b21874517a9c3151a02bddec0745b9ba2b284f899e"}`,
		},
		{
			"/ingest/ev\"t\\\x01é/66", false,
			`{"path":"/ingest/ev\"t\\\x01é/66","object":"3a4f334993b7a04e","data":"3a4f334993b7a04ecc3474069f3cde4339ff6a4132a5259232271ec9acd650cf0eca1fb14e62c976843d5048d013cd3bc7fca6ba2fdd34faaf84485ff3187e875645820ab0d6791e6e95162b1aa747b38e9c5e3ee8764ee2ca0306e59f3f83bf82a8772e37245746"}`,
		},
	}
	o := &WildcardOrigin{}
	for _, c := range cases {
		body, mime, cacheable, err := o.Fetch(c.path)
		if err != nil || mime != "application/json" || cacheable != c.cacheable {
			t.Errorf("%q: mime=%q cacheable=%v err=%v", c.path, mime, cacheable, err)
		}
		if string(body) != c.body {
			t.Errorf("%q: body\n got %s\nwant %s", c.path, body, c.body)
		}
	}
}
