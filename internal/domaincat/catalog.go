// Package domaincat categorizes domains by industry, standing in for the
// commercial categorization service (Symantec SiteReview) the paper uses
// for Fig. 4. A Catalog maps domain names to one of the eleven industry
// categories the paper charts, with a deterministic keyword fallback for
// domains that are not explicitly registered.
package domaincat

import (
	"hash/fnv"
	"strings"
	"sync"
)

// Category is one of the industry categories from Fig. 4.
type Category uint8

const (
	// CategoryUnknown is used when no category can be assigned.
	CategoryUnknown Category = iota
	CategoryNewsMedia
	CategorySports
	CategoryEntertainment
	CategoryFinancial
	CategoryStreaming
	CategoryGaming
	CategoryRetail
	CategoryTechnology
	CategoryTravel
	CategorySocial
	CategoryAdsAnalytics
)

var categoryNames = [...]string{
	"Unknown", "News/Media", "Sports", "Entertainment", "Financial Service",
	"Streaming", "Gaming", "Retail", "Technology", "Travel", "Social",
	"Ads/Analytics",
}

// String returns the category label used in Fig. 4.
func (c Category) String() string {
	if int(c) < len(categoryNames) {
		return categoryNames[c]
	}
	return "Unknown"
}

// Categories returns the eleven industry categories (excluding Unknown)
// in display order.
func Categories() []Category {
	out := make([]Category, 0, 11)
	for c := CategoryNewsMedia; c <= CategoryAdsAnalytics; c++ {
		out = append(out, c)
	}
	return out
}

// keywordRules back the fallback classification: a domain containing the
// keyword is assigned the category. First match wins.
var keywordRules = []struct {
	keyword string
	cat     Category
}{
	{"news", CategoryNewsMedia},
	{"daily", CategoryNewsMedia},
	{"press", CategoryNewsMedia},
	{"sport", CategorySports},
	{"league", CategorySports},
	{"score", CategorySports},
	{"stream", CategoryStreaming},
	{"video", CategoryStreaming},
	{"music", CategoryStreaming},
	{"game", CategoryGaming},
	{"play", CategoryGaming},
	{"bank", CategoryFinancial},
	{"pay", CategoryFinancial},
	{"trade", CategoryFinancial},
	{"finance", CategoryFinancial},
	{"shop", CategoryRetail},
	{"store", CategoryRetail},
	{"market", CategoryRetail},
	{"travel", CategoryTravel},
	{"hotel", CategoryTravel},
	{"flight", CategoryTravel},
	{"social", CategorySocial},
	{"chat", CategorySocial},
	{"friend", CategorySocial},
	{"ads", CategoryAdsAnalytics},
	{"track", CategoryAdsAnalytics},
	{"metric", CategoryAdsAnalytics},
	{"analytics", CategoryAdsAnalytics},
	{"tech", CategoryTechnology},
	{"cloud", CategoryTechnology},
	{"api", CategoryTechnology},
	{"tv", CategoryEntertainment},
	{"movie", CategoryEntertainment},
	{"show", CategoryEntertainment},
}

// Catalog maps domains to categories. Explicit registrations take
// precedence over keyword matching; if neither applies, the domain hashes
// deterministically onto a category so repeated lookups agree (mirroring
// that the commercial service categorizes essentially every domain).
// Catalog is safe for concurrent lookups after registration completes.
type Catalog struct {
	mu       sync.RWMutex
	explicit map[string]Category
}

// NewCatalog returns an empty catalog.
func NewCatalog() *Catalog {
	return &Catalog{explicit: make(map[string]Category)}
}

// Register assigns an explicit category to a domain (case-insensitive).
func (c *Catalog) Register(domain string, cat Category) {
	c.mu.Lock()
	c.explicit[strings.ToLower(domain)] = cat
	c.mu.Unlock()
}

// Len returns the number of explicitly registered domains.
func (c *Catalog) Len() int {
	c.mu.RLock()
	defer c.mu.RUnlock()
	return len(c.explicit)
}

// Lookup returns the category for a domain: explicit registration first,
// then keyword inference, then a deterministic hash assignment.
func (c *Catalog) Lookup(domain string) Category {
	d := strings.ToLower(domain)
	c.mu.RLock()
	cat, ok := c.explicit[d]
	c.mu.RUnlock()
	if ok {
		return cat
	}
	if cat, ok := Infer(d); ok {
		return cat
	}
	return hashCategory(d)
}

// Infer attempts keyword-based categorization only, reporting whether a
// keyword matched.
func Infer(domain string) (Category, bool) {
	d := strings.ToLower(domain)
	for _, r := range keywordRules {
		if strings.Contains(d, r.keyword) {
			return r.cat, true
		}
	}
	return CategoryUnknown, false
}

func hashCategory(domain string) Category {
	h := fnv.New32a()
	h.Write([]byte(domain))
	n := len(categoryNames) - 1 // exclude Unknown
	return Category(1 + h.Sum32()%uint32(n))
}
