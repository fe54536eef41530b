package logfmt

// Interner deduplicates decoded strings. CDN logs repeat the same URLs,
// user agents, methods, and MIME types millions of times; without
// interning, every kept record retains its own copy (and, for the TSV
// path, pins the whole source line its substrings point into). An
// Interner returns one canonical copy per distinct value, so a
// materialized dataset holds each hot string once.
//
// Interning happens where records are kept, not where they are
// decoded: the text Reader interns per reader, and the loops that
// materialize a whole log (experiments.Runner.RunFile's shared slice,
// jsonreplay's loader) intern the URL and user agent of each record
// they keep. The chunk decoder interns nothing: a chunk's dictionary
// already holds each string once, and a stream that keeps no record
// has no use for a table of them.
//
// The table is capped: once max distinct strings have been seen, new
// values pass through uninterned (they still decode correctly, they
// just are not shared). This bounds memory on adversarial input — a
// stream of unique tokenized URLs must not grow the table forever.
//
// Interner is not safe for concurrent use; give each decode goroutine
// its own (the ingest pipeline's workers each own a reader).
type Interner struct {
	m   map[string]string
	max int
}

// DefaultInternerCap is the default distinct-string cap, sized for the
// URL + user-agent population of a large capture while bounding the
// table to tens of MB worst case.
const DefaultInternerCap = 1 << 17

// NewInterner returns an interner holding at most max distinct strings
// (max <= 0 uses DefaultInternerCap).
func NewInterner(max int) *Interner {
	if max <= 0 {
		max = DefaultInternerCap
	}
	return &Interner{m: make(map[string]string, 1024), max: max}
}

// Intern returns the canonical copy of s, remembering it if the table
// has room. The returned string is always equal to s.
func (in *Interner) Intern(s string) string {
	if in == nil || s == "" {
		return s
	}
	if c, ok := in.m[s]; ok {
		return c
	}
	if len(in.m) >= in.max {
		return s
	}
	// strings.Clone the value so interning a substring does not pin its
	// (possibly much larger) backing array.
	c := cloneString(s)
	in.m[c] = c
	return c
}

// Len returns the number of distinct strings held.
func (in *Interner) Len() int {
	if in == nil {
		return 0
	}
	return len(in.m)
}

func cloneString(s string) string {
	b := make([]byte, len(s))
	copy(b, s)
	return string(b)
}

// canonMethod returns the shared literal for the common HTTP methods,
// avoiding a per-record retained copy on the decode path.
func canonMethod(s string) string {
	switch s {
	case "GET":
		return "GET"
	case "POST":
		return "POST"
	case "HEAD":
		return "HEAD"
	case "PUT":
		return "PUT"
	case "DELETE":
		return "DELETE"
	case "OPTIONS":
		return "OPTIONS"
	}
	return s
}

// canonMIME returns the shared literal for the content types the
// generator and the paper's analyses traffic in.
func canonMIME(s string) string {
	switch s {
	case "application/json":
		return "application/json"
	case "text/html":
		return "text/html"
	case "image/jpeg":
		return "image/jpeg"
	case "application/javascript":
		return "application/javascript"
	case "text/css":
		return "text/css"
	case "image/png":
		return "image/png"
	}
	return s
}
