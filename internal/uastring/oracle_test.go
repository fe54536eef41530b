package uastring

import (
	"strings"
	"sync"
	"testing"
	"unsafe"
)

// classifyOracle is Classify as it stood before the single-scan matcher:
// one containsFold pass per rule, table by table, and Parse for the
// native-app name. It is the definition the matcher must reproduce.
func classifyOracle(raw string) Class {
	if strings.TrimSpace(raw) == "" {
		return Class{Device: DeviceUnknown}
	}
	for _, sig := range embeddedSignatures {
		if containsFold(raw, sig.token) {
			return Class{Device: DeviceEmbedded, Browser: false, App: sig.app}
		}
	}
	for _, sig := range toolSignatures {
		if containsFold(raw, sig.token) {
			return Class{Device: DeviceUnknown, Browser: false, App: sig.app}
		}
	}
	var cls Class
	for _, sig := range mobileSignatures {
		if containsFold(raw, sig.token) {
			cls = Class{Device: DeviceMobile, App: sig.app}
			break
		}
	}
	if cls.Device == DeviceUnknown {
		for _, sig := range desktopSignatures {
			if containsFold(raw, sig.token) {
				cls = Class{Device: DeviceDesktop, App: sig.app}
				break
			}
		}
	}
	if cls.Device == DeviceUnknown {
		return Class{Device: DeviceUnknown}
	}
	if strings.HasPrefix(raw, "Mozilla/") {
		for _, sig := range browserSignatures {
			if containsFold(raw, sig.token) {
				cls.Browser = true
				if name := browserName(raw); name != "" {
					cls.App = name
				}
				break
			}
		}
	}
	if !cls.Browser {
		ua := Parse(raw)
		if len(ua.Products) > 0 {
			if name := ua.Products[0].Name; name != "" && !strings.EqualFold(name, "Mozilla") {
				cls.App = name
			}
		}
	}
	return cls
}

// browserName is the hand-written cascade browserSignatures' order and
// app names replaced; the oracle keeps it so the table is checked against
// it rather than against itself.
func browserName(raw string) string {
	switch {
	case containsFold(raw, "Edg/") || containsFold(raw, "Edge/"):
		return "Edge"
	case containsFold(raw, "OPR/") || containsFold(raw, "Opera"):
		return "Opera"
	case containsFold(raw, "SamsungBrowser/"):
		return "SamsungBrowser"
	case containsFold(raw, "UCBrowser/"):
		return "UCBrowser"
	case containsFold(raw, "CriOS/"):
		return "Chrome"
	case containsFold(raw, "FxiOS/"), containsFold(raw, "Firefox/"):
		return "Firefox"
	case containsFold(raw, "Chrome/"):
		return "Chrome"
	case containsFold(raw, "MSIE"), containsFold(raw, "Trident/"):
		return "IE"
	case containsFold(raw, "Safari/"):
		return "Safari"
	default:
		return ""
	}
}

// mixedCase upper-cases every other letter, starting with the first.
func mixedCase(s string) string {
	b := []byte(strings.ToLower(s))
	for i := 0; i < len(b); i += 2 {
		if 'a' <= b[i] && b[i] <= 'z' {
			b[i] -= 'a' - 'A'
		}
	}
	return string(b)
}

// tokenAgents wraps every spelling of every signature token in the
// positions a substring matcher gets wrong: alone, at either end, after a
// partial copy of itself, and behind the prefix browsers need.
func tokenAgents() []string {
	var out []string
	for _, table := range sigTables {
		for _, sig := range table {
			tok := sig.token
			for _, spelt := range []string{tok, strings.ToUpper(tok), strings.ToLower(tok), mixedCase(tok)} {
				out = append(out,
					spelt,
					spelt+" tail",
					"head "+spelt,
					tok[:len(tok)-1]+spelt,
					"Mozilla/5.0 ("+spelt+") Windows NT Chrome/1",
					"Mozilla/5.0 (Android) "+spelt,
				)
			}
		}
	}
	return out
}

var (
	corpusAgents = []string{
		uaChromeWin, uaSafariMac, uaFirefoxLin, uaChromeAnd, uaSafariIOS, uaNewsApp,
		uaOkhttp, uaCFNetwork, uaDalvik, uaPS4, uaSwitch, uaRoku, uaAppleWatch,
		uaSmartTV, uaCurl, uaPyRequests, uaGoHTTP, uaGooglebot, uaGibberish,
		uaEdgeWin, uaChromeIOS, uaTelemetry, uaWindowsApp,
	}
	// awkwardAgents are inputs whose answer depends on a detail of the old
	// code: overlapping tokens, table precedence against string order,
	// Parse's handling of leading space, comments and slashes.
	awkwardAgents = []string{
		"", " ", "\t\n", " ", "(", "()", "/", "/1.0 (iPhone)", "-",
		"Apple TV", "AppleTV", "AppleApple TV", "Apple TVAppleTV", "apple tv (iPhone)",
		"Mozilla/5.0 (Windows NT 10.0) Edg/1", "Mozilla/5.0 (Windows NT 10.0) Edge/1",
		"Mozilla/5.0 (Windows NT 10.0) Edg", "Mozilla/5.0 (Windows NT 10.0) EdgEdge/",
		"Mozilla/5.0 (Windows NT 10.0) Safari/1 Chrome/1 OPR/1 Edg/1",
		"mozilla/5.0 (Windows NT 10.0) Chrome/1",
		" Mozilla/5.0 (Windows NT 10.0) Chrome/1",
		"Xbox PlayStation", "curl/7 Roku", "Macintosh iPhone", "Mobile Windows NT",
		"Watch OS", "watchos", "Wear OSWatch OS", "X11; Linux", "X11;  Linux", "X11; LinuX11; Ubuntu",
		"  NewsApp/3.1 (iPhone)", " NewsApp/3.1 (iPhone)", "News\tApp (iPad)",
		"(iPhone) NewsApp/3.1", "MOZILLA/5.0 (iPhone)", "Mozilla (iPhone)", "App(iPhone)",
		"iPhoné iPhone", "\xff\xfeAndroid\x00", "ANDROİD android",
	}
)

func FuzzClassify(f *testing.F) {
	for _, raw := range corpusAgents {
		f.Add(raw)
	}
	for _, c := range realWorldCorpus {
		f.Add(c.raw)
	}
	for _, raw := range awkwardAgents {
		f.Add(raw)
	}
	for _, raw := range tokenAgents() {
		f.Add(raw)
	}
	f.Fuzz(func(t *testing.T, raw string) {
		if got, want := Classify(raw), classifyOracle(raw); got != want {
			t.Errorf("Classify(%q) = %+v, oracle %+v", raw, got, want)
		}
		name := ""
		if ps := Parse(raw).Products; len(ps) > 0 {
			name = ps[0].Name
		}
		if got := firstProductName(raw); got != name {
			t.Errorf("firstProductName(%q) = %q, Parse says %q", raw, got, name)
		}
	})
}

// TestEveryTokenFires checks the compiled matcher against the tables it
// was compiled from: over every token in every case and position
// tokenAgents spells out, it reports exactly the rules containsFold
// finds — each token's own among them.
func TestEveryTokenFires(t *testing.T) {
	agents := append(append(tokenAgents(), corpusAgents...), awkwardAgents...)
	for _, raw := range agents {
		var want matchSet
		for ti, table := range sigTables {
			for i, sig := range table {
				if containsFold(raw, sig.token) {
					want[ti] |= 1 << i
				}
			}
		}
		if got := sigMatcher.scan(raw); got != want {
			t.Errorf("scan(%q) = %x, containsFold says %x", raw, got, want)
		}
	}
}

// TestClassifyConcurrent shares the package's one matcher between
// goroutines, as the edge's serving goroutines do; `make race` runs it.
func TestClassifyConcurrent(t *testing.T) {
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for _, c := range realWorldCorpus {
				if got, want := Classify(c.raw), classifyOracle(c.raw); got != want {
					t.Errorf("Classify(%q) = %+v, oracle %+v", c.raw, got, want)
				}
			}
		}()
	}
	wg.Wait()
}

func TestClassifyDoesNotAllocate(t *testing.T) {
	for _, raw := range []string{uaChromeWin, uaNewsApp, uaPS4, uaCurl, uaGibberish, ""} {
		raw := raw
		if n := testing.AllocsPerRun(100, func() { Classify(raw) }); n != 0 {
			t.Errorf("Classify(%.30q) allocates %v times a call", raw, n)
		}
	}
}

// TestMatcherTableSize holds the automaton to what stays resident in a
// core's L2 beside the records it classifies.
func TestMatcherTableSize(t *testing.T) {
	m := sigMatcher
	size := len(m.next)*int(unsafe.Sizeof(m.next[0])) + len(m.out)*int(unsafe.Sizeof(m.out[0])) + len(m.col)
	t.Logf("matcher: %d states x %d columns, %d matching, %d bytes",
		len(m.next)/int(m.stride), m.stride, len(m.out), size)
	if size > 64<<10 {
		t.Errorf("matcher tables take %d bytes, want at most 64 KiB", size)
	}
}
