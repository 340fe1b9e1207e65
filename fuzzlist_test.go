package gonamd

import (
	"io/fs"
	"os"
	"path"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

// TestFuzzTargetsListed: `make fuzz` (part of `make ci`) runs one
// -fuzz=<Name> invocation per target, so a Fuzz function the Makefile
// does not name gets its seed corpus run by `go test` and never an
// adversarial input. Every func Fuzz* in the tree must appear in the fuzz
// recipe, against its own package directory.
func TestFuzzTargetsListed(t *testing.T) {
	mk, err := os.ReadFile("Makefile")
	if err != nil {
		t.Fatal(err)
	}
	listed := map[string]string{} // target name → package directory
	line := regexp.MustCompile(`-fuzz=(\w+)\s.*\s(\.\S*)\s*$`)
	inRecipe := false
	for _, l := range strings.Split(string(mk), "\n") {
		switch {
		case strings.HasPrefix(l, "fuzz:"):
			inRecipe = true
		case inRecipe && strings.HasPrefix(l, "\t"):
			if m := line.FindStringSubmatch(l); m != nil {
				listed[m[1]] = path.Clean(m[2])
			}
		default:
			inRecipe = false
		}
	}

	decl := regexp.MustCompile(`(?m)^func (Fuzz\w+)\(\w+ \*testing\.F\)`)
	found := 0
	err = filepath.WalkDir(".", func(file string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if name := d.Name(); file != "." && (strings.HasPrefix(name, ".") || name == "testdata") {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(file, "_test.go") {
			return nil
		}
		src, err := os.ReadFile(file)
		if err != nil {
			return err
		}
		dir := filepath.ToSlash(filepath.Dir(file))
		for _, m := range decl.FindAllSubmatch(src, -1) {
			found++
			name := string(m[1])
			switch pkg, ok := listed[name]; {
			case !ok:
				t.Errorf("%s (%s) has no -fuzz=%s line in the Makefile fuzz target", name, file, name)
			case pkg != dir:
				t.Errorf("Makefile fuzzes %s in %s, but it is declared in %s", name, pkg, dir)
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if found == 0 || len(listed) == 0 {
		t.Fatalf("found %d Fuzz functions and %d Makefile fuzz lines; the scan is broken", found, len(listed))
	}
}
