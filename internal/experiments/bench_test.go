package experiments

import (
	"io"
	"runtime"
	"testing"
)

// benchConfig is deliberately tiny: the benchmarks' job is to expose
// the wall-clock ratio between one worker and several, not to stress
// the analyses.
func benchConfig() Config {
	cfg := smallConfig()
	cfg.PatternTarget = 30_000
	cfg.Permutations = 20
	return cfg
}

func benchRunAll(b *testing.B, cfg Config) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		// A fresh runner per iteration so dataset generation — the cost
		// the scheduler's resource phase attacks — is measured, not
		// memoized away.
		rep, err := NewRunner(cfg).RunAll(io.Discard)
		if err != nil {
			b.Fatal(err)
		}
		if rep.Completed() != len(rep.Steps) {
			b.Fatalf("completed %d of %d steps", rep.Completed(), len(rep.Steps))
		}
	}
}

func BenchmarkRunAllSequential(b *testing.B) {
	benchRunAll(b, benchConfig())
}

func BenchmarkRunAllParallel(b *testing.B) {
	cfg := benchConfig()
	cfg.Jobs = runtime.GOMAXPROCS(0)
	if cfg.Jobs < 2 {
		cfg.Jobs = 2
	}
	benchRunAll(b, cfg)
}
