package uastring

import "testing"

// realWorldCorpus is a set of real-world user-agent strings spanning the
// device families the paper reports, including awkward cases (Android
// TVs, tablets, in-app webviews, SDKs, smart speakers, spoofy bots).
var realWorldCorpus = []struct {
	raw     string
	device  DeviceType
	browser bool
}{
	// Mobile browsers.
	{"Mozilla/5.0 (Linux; Android 8.0.0; SM-G950F) AppleWebKit/537.36 (KHTML, like Gecko) Chrome/74.0.3729.157 Mobile Safari/537.36", DeviceMobile, true},
	{"Mozilla/5.0 (iPhone; CPU iPhone OS 11_4_1 like Mac OS X) AppleWebKit/605.1.15 (KHTML, like Gecko) Version/11.0 Mobile/15E148 Safari/604.1", DeviceMobile, true},
	{"Mozilla/5.0 (Linux; Android 9; SAMSUNG SM-G960U) AppleWebKit/537.36 (KHTML, like Gecko) SamsungBrowser/9.2 Chrome/67.0.3396.87 Mobile Safari/537.36", DeviceMobile, true},
	{"Mozilla/5.0 (Linux; U; Android 9; en-US; Redmi Note 7 Build/PKQ1.180904.001) AppleWebKit/537.36 (KHTML, like Gecko) Version/4.0 Chrome/57.0.2987.108 UCBrowser/12.11.8.1186 Mobile Safari/537.36", DeviceMobile, true},
	// iPad.
	{"Mozilla/5.0 (iPad; CPU OS 12_2 like Mac OS X) AppleWebKit/605.1.15 (KHTML, like Gecko) Version/12.1 Mobile/15E148 Safari/604.1", DeviceMobile, true},
	// In-app webviews: mobile, non-browser product token first.
	{"FBAN/FBIOS;FBAV/215.0.0.40.98 (iPhone; iOS 12.2; scale/3.00)", DeviceMobile, false},
	// Native app SDKs.
	{"Instagram 90.0.0.18.110 Android (26/8.0.0; 480dpi; 1080x2076; samsung; SM-G950F)", DeviceMobile, false},
	{"okhttp/4.2.2", DeviceMobile, false},
	{"MyApp/7.2.1 CFNetwork/978.0.7 Darwin/18.6.0", DeviceMobile, false},
	// Desktop browsers.
	{"Mozilla/5.0 (Windows NT 6.1; WOW64; Trident/7.0; rv:11.0) like Gecko", DeviceDesktop, true},
	{"Mozilla/5.0 (Macintosh; Intel Mac OS X 10_14_5) AppleWebKit/537.36 (KHTML, like Gecko) Chrome/74.0.3729.169 Safari/537.36 OPR/61.0.3298.6", DeviceDesktop, true},
	{"Mozilla/5.0 (X11; CrOS x86_64 11895.95.0) AppleWebKit/537.36 (KHTML, like Gecko) Chrome/74.0.3729.159 Safari/537.36", DeviceDesktop, true},
	// Desktop apps.
	{"Slack/3.4.2 (Macintosh; Electron 3.1.8)", DeviceDesktop, false},
	// Consoles and TVs.
	{"Mozilla/5.0 (PlayStation Vita 3.70) AppleWebKit/537.73 (KHTML, like Gecko) Silk/3.2", DeviceEmbedded, false},
	{"Mozilla/5.0 (Nintendo 3DS; U; ; en) Version/1.7630.US", DeviceEmbedded, false},
	{"Roku4640X/DVP-7.70 (297.70E04154A)", DeviceEmbedded, false},
	{"Mozilla/5.0 (SMART-TV; X11; Linux armv7l) AppleWebKit/537.42 (KHTML, like Gecko) Safari/537.42", DeviceEmbedded, false},
	{"AppleTV6,2/11.1", DeviceEmbedded, false},
	{"Mozilla/5.0 (CrKey armv7l 1.5.16041) AppleWebKit/537.36 (KHTML, like Gecko)", DeviceEmbedded, false},
	// Watches and IoT.
	{"Workout/5.1 (Apple Watch; watchOS 5.1.2; Watch4,2)", DeviceEmbedded, false},
	{"SmartHome/2.0 (ESP8266; rtos 3.1)", DeviceEmbedded, false},
	// Tools and bots: unknown device.
	{"python-requests/2.22.0", DeviceUnknown, false},
	{"Apache-HttpClient/4.5.8 (Java/1.8.0_212)", DeviceUnknown, false},
	{"Mozilla/5.0 (compatible; bingbot/2.0; +http://www.bing.com/bingbot.htm)", DeviceUnknown, false},
	{"Wget/1.20.3 (linux-gnu)", DeviceUnknown, false},
	{"axios/0.19.0", DeviceUnknown, false},
	// Garbage.
	{"-", DeviceUnknown, false},
	{"()", DeviceUnknown, false},
}

// TestRealWorldCorpus pins the classifier against realWorldCorpus.
func TestRealWorldCorpus(t *testing.T) {
	for _, c := range realWorldCorpus {
		got := Classify(c.raw)
		if got.Device != c.device {
			t.Errorf("Classify(%.60q).Device = %v, want %v", c.raw, got.Device, c.device)
		}
		if got.Browser != c.browser {
			t.Errorf("Classify(%.60q).Browser = %v, want %v", c.raw, got.Browser, c.browser)
		}
	}
}
