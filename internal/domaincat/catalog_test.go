package domaincat

import (
	"testing"
	"testing/quick"
)

func TestCategoryString(t *testing.T) {
	if CategoryNewsMedia.String() != "News/Media" {
		t.Errorf("got %q", CategoryNewsMedia.String())
	}
	if Category(99).String() != "Unknown" {
		t.Error("out-of-range category should be Unknown")
	}
}

func TestCategoriesListsEleven(t *testing.T) {
	cats := Categories()
	if len(cats) != 11 {
		t.Fatalf("got %d categories, want 11 (paper's Fig. 4)", len(cats))
	}
	seen := map[Category]bool{}
	for _, c := range cats {
		if c == CategoryUnknown {
			t.Error("Unknown should not be listed")
		}
		if seen[c] {
			t.Errorf("duplicate category %v", c)
		}
		seen[c] = true
	}
}

func TestInferKeywords(t *testing.T) {
	cases := map[string]Category{
		"worldnews.example.com":   CategoryNewsMedia,
		"sportscores.example.com": CategoryNewsMedia, // "news" not present; "sport" matches first? see below
		"mybank.example.com":      CategoryFinancial,
		"gamehub.example.com":     CategoryGaming,
		"streambox.example.com":   CategoryStreaming,
		"adstracker.example.com":  CategoryAdsAnalytics,
	}
	// Correction: sportscores contains "sport" -> Sports.
	cases["sportscores.example.com"] = CategorySports
	for d, want := range cases {
		got, ok := Infer(d)
		if !ok || got != want {
			t.Errorf("Infer(%q) = %v (ok=%v), want %v", d, got, ok, want)
		}
	}
	if _, ok := Infer("zzqqx.example.com"); ok {
		t.Error("no keyword should match")
	}
}

func TestCatalogExplicitWins(t *testing.T) {
	c := NewCatalog()
	c.Register("GameHub.example.com", CategoryFinancial)
	if got := c.Lookup("gamehub.example.com"); got != CategoryFinancial {
		t.Errorf("explicit registration ignored: %v", got)
	}
	if c.Len() != 1 {
		t.Errorf("Len = %d", c.Len())
	}
}

func TestCatalogHashFallbackDeterministic(t *testing.T) {
	c := NewCatalog()
	a := c.Lookup("zzqqx1.example.com")
	b := c.Lookup("zzqqx1.example.com")
	if a != b {
		t.Error("hash fallback not deterministic")
	}
	if a == CategoryUnknown {
		t.Error("hash fallback should never be Unknown")
	}
}

func TestCatalogFallbackSpreads(t *testing.T) {
	c := NewCatalog()
	seen := map[Category]bool{}
	for i := 0; i < 200; i++ {
		d := "zz" + string(rune('a'+i%26)) + string(rune('a'+(i/26)%26)) + "qx.example.com"
		seen[c.Lookup(d)] = true
	}
	if len(seen) < 8 {
		t.Errorf("hash fallback uses only %d categories", len(seen))
	}
}

func TestLookupNeverUnknownAndNeverPanics(t *testing.T) {
	c := NewCatalog()
	err := quick.Check(func(s string) bool {
		return c.Lookup(s) != CategoryUnknown
	}, nil)
	if err != nil {
		t.Error(err)
	}
}

func TestCatalogConcurrent(t *testing.T) {
	c := NewCatalog()
	done := make(chan struct{})
	go func() {
		for i := 0; i < 100; i++ {
			c.Register("d.example.com", CategorySports)
		}
		close(done)
	}()
	for i := 0; i < 100; i++ {
		c.Lookup("d.example.com")
		c.Lookup("other.example.com")
	}
	<-done
}
