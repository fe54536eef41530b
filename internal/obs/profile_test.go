package obs

import (
	"os"
	"path/filepath"
	"testing"
)

// TestStartProfilesCreatesDir starts and stops a profile bracket into a
// nested directory that does not exist yet: both profiles must land
// there, as the run manifest does.
func TestStartProfilesCreatesDir(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "a", "b")
	stop, err := StartProfiles(dir, "run1")
	if err != nil {
		t.Fatal(err)
	}
	if err := stop(); err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{"cpu-run1.pprof", "heap-run1.pprof"} {
		if fi, err := os.Stat(filepath.Join(dir, name)); err != nil {
			t.Error(err)
		} else if fi.Size() == 0 {
			t.Errorf("%s is empty", name)
		}
	}
}
