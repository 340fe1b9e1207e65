package molgen

import (
	"encoding/binary"
	"flag"
	"fmt"
	"hash/fnv"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

var update = flag.Bool("update", false, "rewrite golden files")

// fnvOf is the FNV-64a hash of v's little-endian binary encoding; v is a
// slice of fixed-size values.
func fnvOf(t *testing.T, v any) uint64 {
	t.Helper()
	h := fnv.New64a()
	if err := binary.Write(h, binary.LittleEndian, v); err != nil {
		t.Fatal(err)
	}
	return h.Sum64()
}

// TestBuildGolden pins every bit Build produces: for water boxes of three
// sizes and the paper's systems, FNV-64 hashes of the positions,
// velocities, atoms (type, mass, charge, molecule), each bonded term
// list, and the exclusion lists in ForEachExcludedPair order (full, then
// 1-4: every atom's excl and excl14 list, sorted). A change to the builder's search structures that keeps its
// choices leaves testdata/build_golden.txt byte-identical; -update
// rewrites it. BC1 is built only without -short; a short run compares
// the other lines.
func TestBuildGolden(t *testing.T) {
	specs := []Spec{WaterBox(16, 3), WaterBox(24, 11), WaterBox(48, 7), BR(), ApoA1(), BC1()}
	var lines []string
	skipped := map[string]bool{}
	for _, spec := range specs {
		name := spec.Name
		if name == "water box" {
			name = fmt.Sprintf("water%g", spec.Box.X)
		}
		if name == "BC1" && testing.Short() {
			skipped[name] = true
			continue
		}
		sys, st, err := Build(spec)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		line := fmt.Sprintf("%-8s atoms=%d bonds=%d angles=%d dihedrals=%d impropers=%d", name,
			sys.N(), len(sys.Bonds), len(sys.Angles), len(sys.Dihedrals), len(sys.Impropers))
		for _, v := range []any{st.Pos, st.Vel, sys.Atoms, sys.Bonds, sys.Angles, sys.Dihedrals, sys.Impropers} {
			line += fmt.Sprintf(" %016x", fnvOf(t, v))
		}
		var full, modified [][2]int32
		sys.ForEachExcludedPair(func(i, j int32, mod bool) {
			if mod {
				modified = append(modified, [2]int32{i, j})
			} else {
				full = append(full, [2]int32{i, j})
			}
		})
		line += fmt.Sprintf(" excl=%016x excl14=%016x", fnvOf(t, full), fnvOf(t, modified))
		lines = append(lines, line)
	}

	path := filepath.Join("testdata", "build_golden.txt")
	if *update {
		if len(skipped) > 0 {
			t.Fatal("-update needs a run without -short")
		}
		if err := os.WriteFile(path, []byte(strings.Join(lines, "\n")+"\n"), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("%v (run 'go test ./internal/molgen -run TestBuildGolden -update' to create)", err)
	}
	var want []string
	for _, l := range strings.Split(strings.TrimSuffix(string(data), "\n"), "\n") {
		if !skipped[strings.Fields(l)[0]] {
			want = append(want, l)
		}
	}
	if len(lines) != len(want) {
		t.Fatalf("%d systems, %s has %d", len(lines), path, len(want))
	}
	for i := range lines {
		if lines[i] != want[i] {
			t.Errorf("build drifted from %s:\n got  %s\n want %s", path, lines[i], want[i])
		}
	}
}
