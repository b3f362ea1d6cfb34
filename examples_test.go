package castanet_test

import (
	"os"
	"os/exec"
	"path/filepath"
	"testing"
)

// TestExamples builds every example once and runs each, comparing its
// stdout byte for byte with examples/<name>/testdata/stdout.golden, so
// an example cannot rot while it still compiles. After a deliberate
// output change, re-record a golden with
//
//	go run ./examples/<name> > examples/<name>/testdata/stdout.golden
func TestExamples(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and runs the examples")
	}
	dirs, err := os.ReadDir("examples")
	if err != nil {
		t.Fatal(err)
	}
	bin := t.TempDir()
	if out, err := exec.Command("go", "build", "-o", bin, "./examples/...").CombinedOutput(); err != nil {
		t.Fatalf("build examples: %v\n%s", err, out)
	}
	for _, d := range dirs {
		if !d.IsDir() {
			continue
		}
		name := d.Name()
		t.Run(name, func(t *testing.T) {
			t.Parallel()
			want, err := os.ReadFile(filepath.Join("examples", name, "testdata", "stdout.golden"))
			if err != nil {
				t.Fatal(err)
			}
			cmd := exec.Command(filepath.Join(bin, name))
			cmd.Stderr = os.Stderr
			got, err := cmd.Output()
			if err != nil {
				t.Fatalf("%s: %v\n%s", name, err, got)
			}
			if string(got) != string(want) {
				t.Errorf("%s stdout drifted from its golden:\n-- got --\n%s-- want --\n%s", name, got, want)
			}
		})
	}
}
