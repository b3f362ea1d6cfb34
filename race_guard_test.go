package castanet_test

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"
)

// TestRaceTargetCoversGoroutines: every package of this module whose
// non-test code contains a go statement is tested under the race
// detector by `make race`, so a package that starts goroutines cannot
// stay out of the race gate unnoticed.
func TestRaceTargetCoversGoroutines(t *testing.T) {
	patterns := raceTargetPatterns(t)
	fset := token.NewFileSet()
	concurrent := map[string]bool{}
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if path == "." {
				return nil
			}
			if strings.HasPrefix(d.Name(), ".") || d.Name() == "testdata" {
				return filepath.SkipDir
			}
			// A nested module (cvbench) is outside this module's go test.
			if _, err := os.Stat(filepath.Join(path, "go.mod")); err == nil {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") {
			return nil
		}
		f, err := parser.ParseFile(fset, path, nil, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		ast.Inspect(f, func(n ast.Node) bool {
			if _, ok := n.(*ast.GoStmt); ok {
				concurrent[filepath.ToSlash(filepath.Dir(path))] = true
			}
			return true
		})
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(concurrent) == 0 {
		t.Fatal("found no package with a go statement; the scan is broken")
	}
	var missing []string
	for dir := range concurrent {
		if !raceCovers(patterns, dir) {
			missing = append(missing, "./"+dir)
		}
	}
	sort.Strings(missing)
	if len(missing) > 0 {
		t.Errorf("packages starting goroutines missing from the Makefile race target %v: %v", patterns, missing)
	}
}

// raceTargetPatterns returns the package patterns of the Makefile race
// target's recipe.
func raceTargetPatterns(t *testing.T) []string {
	t.Helper()
	mk, err := os.ReadFile("Makefile")
	if err != nil {
		t.Fatal(err)
	}
	var patterns []string
	inRace := false
	for _, line := range strings.Split(string(mk), "\n") {
		switch {
		case strings.HasPrefix(line, "race:"):
			inRace = true
		case inRace && strings.HasPrefix(line, "\t"):
			for _, f := range strings.Fields(line) {
				if strings.HasPrefix(f, "./") {
					patterns = append(patterns, f)
				}
			}
		case inRace:
			inRace = false
		}
	}
	if len(patterns) == 0 {
		t.Fatal("Makefile race target names no packages")
	}
	return patterns
}

// raceCovers reports whether a go test pattern ("./dir" or "./dir/...")
// matches the package in dir.
func raceCovers(patterns []string, dir string) bool {
	for _, p := range patterns {
		p = strings.TrimPrefix(p, "./")
		if tree, ok := strings.CutSuffix(p, "/..."); ok {
			if dir == tree || strings.HasPrefix(dir, tree+"/") {
				return true
			}
		} else if dir == p {
			return true
		}
	}
	return false
}
