// Package uastring parses and classifies HTTP User-Agent strings.
//
// The paper identifies the traffic source of each request from the
// user-agent header (§3.2): device type (mobile / desktop / embedded /
// unknown), whether the initiator is a browser, and the application name.
// It relies on Akamai's EDC device database and a browser user-agent
// database; this package provides the equivalent functionality with
// built-in classification tables.
//
// Parsing follows the RFC 7231 §5.5.3 grammar: a user agent is a sequence
// of product tokens ("name/version") optionally interleaved with
// parenthesized comments whose items are separated by semicolons.
package uastring

import "strings"

// Product is one "name/version" token from a user-agent string.
type Product struct {
	Name    string
	Version string
	// Comment holds the items of the parenthesized comment that
	// immediately follows this product, split on ";" and trimmed.
	Comment []string
}

// UserAgent is a parsed user-agent header.
type UserAgent struct {
	// Raw is the original header value.
	Raw string
	// Products are the product tokens in order of appearance.
	Products []Product
}

// Parse splits a user-agent header into products and comments. It never
// fails: unparseable segments are preserved as products with empty
// versions so classification can still pattern-match on them.
func Parse(raw string) UserAgent {
	ua := UserAgent{Raw: raw}
	s := strings.TrimSpace(raw)
	for len(s) > 0 {
		switch s[0] {
		case '(':
			// Comment: attach to the most recent product, or to a
			// synthetic empty product when the string starts with one.
			body, rest := scanComment(s)
			if len(ua.Products) == 0 {
				ua.Products = append(ua.Products, Product{})
			}
			p := &ua.Products[len(ua.Products)-1]
			for _, item := range strings.Split(body, ";") {
				if item = strings.TrimSpace(item); item != "" {
					p.Comment = append(p.Comment, item)
				}
			}
			s = strings.TrimLeft(rest, " \t")
		default:
			token := s
			if i := strings.IndexAny(s, " \t("); i >= 0 {
				token, s = s[:i], strings.TrimLeft(s[i:], " \t")
			} else {
				s = ""
			}
			name, version, _ := strings.Cut(token, "/")
			ua.Products = append(ua.Products, Product{Name: name, Version: version})
		}
	}
	return ua
}

// firstProductName returns Parse(raw).Products[0].Name without building
// the product list; "" when raw is blank or opens with a comment.
func firstProductName(raw string) string {
	s := strings.TrimSpace(raw)
	if s == "" || s[0] == '(' {
		return ""
	}
	if i := strings.IndexAny(s, " \t(/"); i >= 0 {
		s = s[:i]
	}
	return s
}

// scanComment consumes a balanced parenthesized comment starting at s[0]
// == '(' and returns its body and the remainder. An unbalanced comment
// extends to the end of the string.
func scanComment(s string) (body, rest string) {
	depth := 0
	for i := 0; i < len(s); i++ {
		switch s[i] {
		case '(':
			depth++
		case ')':
			depth--
			if depth == 0 {
				return s[1:i], s[i+1:]
			}
		}
	}
	return s[1:], ""
}

// Product returns the first product with the given name
// (case-insensitive), or nil.
func (ua *UserAgent) Product(name string) *Product {
	for i := range ua.Products {
		if strings.EqualFold(ua.Products[i].Name, name) {
			return &ua.Products[i]
		}
	}
	return nil
}

// HasToken reports whether token appears anywhere in the user agent
// (product names or comment items), case-insensitive substring match.
// This is the "group by system identifiers" operation from §3.2.
func (ua *UserAgent) HasToken(token string) bool {
	return containsFold(ua.Raw, token)
}

// containsFold reports whether substr appears in s, ASCII
// case-insensitively, without allocating.
func containsFold(s, substr string) bool {
	n := len(substr)
	if n == 0 {
		return true
	}
	if n > len(s) {
		return false
	}
	for i := 0; i+n <= len(s); i++ {
		if equalFoldAt(s, i, substr) {
			return true
		}
	}
	return false
}

func equalFoldAt(s string, off int, substr string) bool {
	for j := 0; j < len(substr); j++ {
		if foldByte(s[off+j]) != foldByte(substr[j]) {
			return false
		}
	}
	return true
}
