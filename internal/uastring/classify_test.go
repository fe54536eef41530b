package uastring

import "testing"

// Realistic user agents for each class.
const (
	uaChromeWin  = "Mozilla/5.0 (Windows NT 10.0; Win64; x64) AppleWebKit/537.36 (KHTML, like Gecko) Chrome/74.0.3729.131 Safari/537.36"
	uaSafariMac  = "Mozilla/5.0 (Macintosh; Intel Mac OS X 10_14_4) AppleWebKit/605.1.15 (KHTML, like Gecko) Version/12.1 Safari/605.1.15"
	uaFirefoxLin = "Mozilla/5.0 (X11; Linux x86_64; rv:66.0) Gecko/20100101 Firefox/66.0"
	uaChromeAnd  = "Mozilla/5.0 (Linux; Android 9; SM-G960F) AppleWebKit/537.36 (KHTML, like Gecko) Chrome/74.0.3729.136 Mobile Safari/537.36"
	uaSafariIOS  = "Mozilla/5.0 (iPhone; CPU iPhone OS 12_2 like Mac OS X) AppleWebKit/605.1.15 (KHTML, like Gecko) Version/12.1 Mobile/15E148 Safari/604.1"
	uaNewsApp    = "NewsApp/3.1 (iPhone; iOS 12.2; Scale/3.00)"
	uaOkhttp     = "okhttp/3.12.1"
	uaCFNetwork  = "StreamKit/401 CFNetwork/978.0.7 Darwin/18.5.0"
	uaDalvik     = "Dalvik/2.1.0 (Linux; U; Android 8.1.0; Pixel XL Build/OPM4)"
	uaPS4        = "Mozilla/5.0 (PlayStation 4 6.51) AppleWebKit/605.1.15 (KHTML, like Gecko)"
	uaSwitch     = "Mozilla/5.0 (Nintendo Switch; WebApplet) AppleWebKit/606.4 (KHTML, like Gecko) NF/6.0.0.15.4"
	uaRoku       = "Roku/DVP-9.10 (519.10E04111A)"
	uaAppleWatch = "ScoreApp/2.0 (Apple Watch; watchOS 5.2)"
	uaSmartTV    = "Mozilla/5.0 (SMART-TV; Linux; Tizen 5.0) AppleWebKit/537.36"
	uaCurl       = "curl/7.64.0"
	uaPyRequests = "python-requests/2.21.0"
	uaGoHTTP     = "Go-http-client/1.1"
	uaGooglebot  = "Mozilla/5.0 (compatible; Googlebot/2.1; +http://www.google.com/bot.html)"
	uaGibberish  = "x93k-zz binary agent"
	uaEdgeWin    = "Mozilla/5.0 (Windows NT 10.0; Win64; x64) AppleWebKit/537.36 (KHTML, like Gecko) Chrome/74.0.3729.131 Safari/537.36 Edg/74.1.96.24"
	uaChromeIOS  = "Mozilla/5.0 (iPhone; CPU iPhone OS 12_2 like Mac OS X) AppleWebKit/605.1.15 (KHTML, like Gecko) CriOS/74.0.3729.121 Mobile/15E148 Safari/605.1"
	uaTelemetry  = "TelemetrySDK/1.4 (Android 8.0; tracking)"
	uaWindowsApp = "WeatherDesk/5.2 (Windows NT 10.0; x64)"
)

func TestClassifyDevices(t *testing.T) {
	cases := []struct {
		raw  string
		want DeviceType
	}{
		{uaChromeWin, DeviceDesktop},
		{uaSafariMac, DeviceDesktop},
		{uaFirefoxLin, DeviceDesktop},
		{uaChromeAnd, DeviceMobile},
		{uaSafariIOS, DeviceMobile},
		{uaNewsApp, DeviceMobile},
		{uaOkhttp, DeviceMobile},
		{uaCFNetwork, DeviceMobile},
		{uaDalvik, DeviceMobile},
		{uaPS4, DeviceEmbedded},
		{uaSwitch, DeviceEmbedded},
		{uaRoku, DeviceEmbedded},
		{uaAppleWatch, DeviceEmbedded},
		{uaSmartTV, DeviceEmbedded},
		{uaCurl, DeviceUnknown},
		{uaPyRequests, DeviceUnknown},
		{uaGoHTTP, DeviceUnknown},
		{uaGooglebot, DeviceUnknown},
		{uaGibberish, DeviceUnknown},
		{"", DeviceUnknown},
		{"   ", DeviceUnknown},
		{uaWindowsApp, DeviceDesktop},
	}
	for _, c := range cases {
		if got := Classify(c.raw); got.Device != c.want {
			t.Errorf("Classify(%.40q).Device = %v, want %v", c.raw, got.Device, c.want)
		}
	}
}

func TestClassifyBrowserFlag(t *testing.T) {
	browsers := []string{uaChromeWin, uaSafariMac, uaFirefoxLin, uaChromeAnd, uaSafariIOS, uaEdgeWin, uaChromeIOS}
	for _, raw := range browsers {
		if got := Classify(raw); !got.Browser {
			t.Errorf("Classify(%.40q).Browser = false, want true", raw)
		}
	}
	nonBrowsers := []string{uaNewsApp, uaOkhttp, uaCFNetwork, uaDalvik, uaRoku, uaAppleWatch, uaCurl, uaGooglebot, uaTelemetry, ""}
	for _, raw := range nonBrowsers {
		if got := Classify(raw); got.Browser {
			t.Errorf("Classify(%.40q).Browser = true, want false", raw)
		}
	}
}

func TestClassifyAppNames(t *testing.T) {
	cases := map[string]string{
		uaChromeWin:  "Chrome",
		uaEdgeWin:    "Edge",
		uaChromeIOS:  "Chrome",
		uaSafariIOS:  "Safari",
		uaFirefoxLin: "Firefox",
		uaNewsApp:    "NewsApp",
		uaCurl:       "curl",
		uaGooglebot:  "bot",
		uaOkhttp:     "okhttp",
	}
	for raw, want := range cases {
		if got := Classify(raw); got.App != want {
			t.Errorf("Classify(%.40q).App = %q, want %q", raw, got.App, want)
		}
	}
}

func TestBrowserNamePrecedence(t *testing.T) {
	// Chrome UA contains Safari token; Edge contains both.
	if got := browserName(uaChromeWin); got != "Chrome" {
		t.Errorf("chrome UA -> %q", got)
	}
	if got := browserName(uaEdgeWin); got != "Edge" {
		t.Errorf("edge UA -> %q", got)
	}
	if got := browserName("nothing here"); got != "" {
		t.Errorf("no browser -> %q", got)
	}
}

func TestDeviceTypeString(t *testing.T) {
	if DeviceMobile.String() != "Mobile" || DeviceType(200).String() != "Unknown" {
		t.Error("DeviceType.String wrong")
	}
}
