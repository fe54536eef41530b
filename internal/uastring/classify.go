package uastring

import "strings"

// DeviceType is the paper's device taxonomy (§3.2): mobiles,
// desktops/laptops, embedded devices (game consoles, IoT, smart TVs,
// watches), and unknown for missing or unidentifiable agents.
type DeviceType uint8

const (
	// DeviceUnknown marks a missing or unidentifiable user agent.
	DeviceUnknown DeviceType = iota
	// DeviceMobile marks smartphones and tablets.
	DeviceMobile
	// DeviceDesktop marks desktops and laptops.
	DeviceDesktop
	// DeviceEmbedded marks non-mobile, non-desktop devices: game
	// consoles, IoT, smart TVs, watches, set-top boxes.
	DeviceEmbedded
)

var deviceNames = [...]string{"Unknown", "Mobile", "Desktop", "Embedded"}

// String returns the device type label used in the paper's figures.
func (d DeviceType) String() string {
	if int(d) < len(deviceNames) {
		return deviceNames[d]
	}
	return "Unknown"
}

// Class is the full traffic-source classification of one user agent.
type Class struct {
	Device DeviceType
	// Browser reports whether the agent is a web browser (vs a native
	// app, SDK, or script). Browsers use well-formed user agents, so this
	// is reliable when Device != DeviceUnknown.
	Browser bool
	// App is the identified application or platform family name
	// (e.g. "Chrome", "okhttp", "PlayStation"), or "" if unknown.
	App string
}

// signature is one classification rule: if the user agent contains Token
// (case-insensitively), it matches.
type signature struct {
	token   string
	device  DeviceType
	browser bool
	app     string
}

// The rule tables below stand in for the external databases the paper
// uses (Akamai EDC, useragentstring.com). Order matters: earlier rules
// win, so more specific tokens come first. Mobile checks precede desktop
// checks because mobile agents often embed desktop tokens ("like Mac OS
// X", "Windows Phone").

// embeddedSignatures identify game consoles, TVs, watches, and IoT.
var embeddedSignatures = []signature{
	{token: "PlayStation", device: DeviceEmbedded, app: "PlayStation"},
	{token: "Nintendo", device: DeviceEmbedded, app: "Nintendo"},
	{token: "Xbox", device: DeviceEmbedded, app: "Xbox"},
	{token: "SmartTV", device: DeviceEmbedded, app: "SmartTV"},
	{token: "SMART-TV", device: DeviceEmbedded, app: "SmartTV"},
	{token: "AppleTV", device: DeviceEmbedded, app: "AppleTV"},
	{token: "Apple TV", device: DeviceEmbedded, app: "AppleTV"},
	{token: "Roku", device: DeviceEmbedded, app: "Roku"},
	{token: "BRAVIA", device: DeviceEmbedded, app: "SmartTV"},
	{token: "Tizen", device: DeviceEmbedded, app: "Tizen"},
	{token: "Watch OS", device: DeviceEmbedded, app: "Watch"},
	{token: "watchOS", device: DeviceEmbedded, app: "Watch"},
	{token: "Apple Watch", device: DeviceEmbedded, app: "Watch"},
	{token: "Wear OS", device: DeviceEmbedded, app: "Watch"},
	{token: "CrKey", device: DeviceEmbedded, app: "Chromecast"},
	{token: "AlexaMediaPlayer", device: DeviceEmbedded, app: "Alexa"},
	{token: "VizioCast", device: DeviceEmbedded, app: "SmartTV"},
	{token: "HbbTV", device: DeviceEmbedded, app: "SmartTV"},
	{token: "ESP8266", device: DeviceEmbedded, app: "IoT"},
	{token: "ESP32", device: DeviceEmbedded, app: "IoT"},
	{token: "micropython", device: DeviceEmbedded, app: "IoT"},
}

// mobileSignatures identify smartphones and tablets.
var mobileSignatures = []signature{
	{token: "iPhone", device: DeviceMobile, app: "iPhone"},
	{token: "iPad", device: DeviceMobile, app: "iPad"},
	{token: "iPod", device: DeviceMobile, app: "iPod"},
	{token: "Android", device: DeviceMobile, app: "Android"},
	{token: "Windows Phone", device: DeviceMobile, app: "WindowsPhone"},
	{token: "BlackBerry", device: DeviceMobile, app: "BlackBerry"},
	{token: "CFNetwork", device: DeviceMobile, app: "CFNetwork"},
	{token: "Darwin/", device: DeviceMobile, app: "Darwin"},
	{token: "okhttp", device: DeviceMobile, app: "okhttp"},
	{token: "Dalvik", device: DeviceMobile, app: "Dalvik"},
	{token: "Mobile", device: DeviceMobile},
}

// desktopSignatures identify desktops/laptops.
var desktopSignatures = []signature{
	{token: "Windows NT", device: DeviceDesktop, app: "Windows"},
	{token: "Macintosh", device: DeviceDesktop, app: "macOS"},
	{token: "X11; Linux", device: DeviceDesktop, app: "Linux"},
	{token: "X11; Ubuntu", device: DeviceDesktop, app: "Linux"},
	{token: "CrOS", device: DeviceDesktop, app: "ChromeOS"},
	{token: "Electron", device: DeviceDesktop, app: "Electron"},
}

// browserSignatures identify browser engines and name the browser
// family; consulted only after a device has been identified, because bots
// spoof browser tokens with no platform comment. Most specific first:
// every Chrome agent also carries "Safari/", every Edge agent both.
var browserSignatures = []signature{
	{token: "Edg/", app: "Edge"},
	{token: "Edge/", app: "Edge"},
	{token: "OPR/", app: "Opera"},
	{token: "Opera", app: "Opera"},
	{token: "SamsungBrowser/", app: "SamsungBrowser"},
	{token: "UCBrowser/", app: "UCBrowser"},
	{token: "CriOS/", app: "Chrome"},
	{token: "FxiOS/", app: "Firefox"},
	{token: "Firefox/", app: "Firefox"},
	{token: "Chrome/", app: "Chrome"},
	{token: "MSIE", app: "IE"},
	{token: "Trident/", app: "IE"},
	{token: "Safari/", app: "Safari"},
}

// toolSignatures are non-browser programmatic clients that run on
// servers or scripts; classified as Unknown device (the paper cannot
// link them to a platform) but with an identified app.
var toolSignatures = []signature{
	{token: "curl/", app: "curl"},
	{token: "Wget/", app: "wget"},
	{token: "python-requests", app: "python-requests"},
	{token: "Python-urllib", app: "python-urllib"},
	{token: "Go-http-client", app: "go-http"},
	{token: "Java/", app: "java"},
	{token: "Apache-HttpClient", app: "java-httpclient"},
	{token: "libwww-perl", app: "perl"},
	{token: "node-fetch", app: "node"},
	{token: "axios/", app: "node-axios"},
	{token: "Googlebot", app: "bot"},
	{token: "bingbot", app: "bot"},
	{token: "Slackbot", app: "bot"},
	{token: "facebookexternalhit", app: "bot"},
}

var sigTables = [numTables][]signature{
	tblEmbedded: embeddedSignatures,
	tblTool:     toolSignatures,
	tblMobile:   mobileSignatures,
	tblDesktop:  desktopSignatures,
	tblBrowser:  browserSignatures,
}

// sigMatcher finds every token of the tables above in one scan of the
// agent. It is compiled from them at package initialisation and only read
// afterwards, so Classify is a pure function any number of goroutines may
// call; the tables remain the only place a rule is written down.
var sigMatcher = compileMatcher(sigTables)

// Classify maps a raw user-agent header to its traffic-source class.
// An empty header is Unknown, matching the paper's treatment of missing
// user agents.
func Classify(raw string) Class {
	found := sigMatcher.scan(raw)
	// Embedded before mobile: console/TV agents often carry "Mobile" or
	// Android tokens (e.g. Android TV).
	if i := found.first(tblEmbedded); i >= 0 {
		return Class{Device: DeviceEmbedded, App: embeddedSignatures[i].app}
	}
	if i := found.first(tblTool); i >= 0 {
		return Class{Device: DeviceUnknown, App: toolSignatures[i].app}
	}
	var cls Class
	if i := found.first(tblMobile); i >= 0 {
		cls = Class{Device: DeviceMobile, App: mobileSignatures[i].app}
	} else if i := found.first(tblDesktop); i >= 0 {
		cls = Class{Device: DeviceDesktop, App: desktopSignatures[i].app}
	} else {
		return Class{Device: DeviceUnknown}
	}
	// Browser detection: require a browser engine token AND the
	// well-formed "Mozilla/" prefix browsers send.
	if i := found.first(tblBrowser); i >= 0 && strings.HasPrefix(raw, "Mozilla/") {
		cls.Browser = true
		cls.App = browserSignatures[i].app
		return cls
	}
	// Native app with a custom product token: report its name. The
	// platform family from the signature table remains the fallback
	// for well-formed Mozilla-style agents.
	if name := firstProductName(raw); name != "" && !strings.EqualFold(name, "Mozilla") {
		cls.App = name
	}
	return cls
}
