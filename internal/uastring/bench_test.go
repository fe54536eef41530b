package uastring

import "testing"

func BenchmarkClassifyBrowser(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		Classify(uaChromeWin)
	}
}

func BenchmarkClassifyNativeApp(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		Classify(uaNewsApp)
	}
}

func BenchmarkClassifyEmbedded(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		Classify(uaPS4)
	}
}

func BenchmarkParse(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		Parse(uaChromeWin)
	}
}
