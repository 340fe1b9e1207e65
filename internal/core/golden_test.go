package core

import (
	"encoding/binary"
	"flag"
	"fmt"
	"hash/fnv"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"gonamd/internal/molgen"
	"gonamd/internal/spatial"
)

var update = flag.Bool("update", false, "rewrite golden files")

// TestWorkloadGolden pins every count BuildWorkload measures on the
// paper's bR and ApoA-I systems and on the package's small test system:
// FNV-64 hashes of PatchAtoms, Self, Pairs, PairCounts, IntraTerms and
// InterGroups, next to the aggregate counts. A change to the census that
// keeps every count leaves testdata/workload_golden.txt byte-identical;
// -update rewrites it.
func TestWorkloadGolden(t *testing.T) {
	small, _ := testWorkload(t)
	ws := []*Workload{small}
	for _, spec := range []molgen.Spec{molgen.BR(), molgen.ApoA1()} {
		spec.Temperature = 0
		sys, st, err := molgen.Build(spec)
		if err != nil {
			t.Fatal(err)
		}
		grid, err := spatial.NewGridDims(spec.Box, spec.PatchDims, molgen.Cutoff)
		if err != nil {
			t.Fatal(err)
		}
		w, err := BuildWorkload(spec.Name, sys, st, grid, molgen.Cutoff, molgen.Cutoff+1.5)
		if err != nil {
			t.Fatal(err)
		}
		ws = append(ws, w)
	}

	var got strings.Builder
	for _, w := range ws {
		hash := func(vs ...any) uint64 {
			h := fnv.New64a()
			for _, v := range vs {
				if err := binary.Write(h, binary.LittleEndian, v); err != nil {
					t.Fatal(err)
				}
			}
			return h.Sum64()
		}
		patchAtoms := make([]int64, len(w.PatchAtoms))
		for i, n := range w.PatchAtoms {
			patchAtoms[i] = int64(n)
		}
		intra := make([]int64, len(w.IntraTerms))
		for i, n := range w.IntraTerms {
			intra[i] = int64(n)
		}
		pairs := make([][2]int64, len(w.Pairs))
		for i, p := range w.Pairs {
			pairs[i] = [2]int64{int64(p[0]), int64(p[1])}
		}
		var groups []int64
		for _, g := range w.InterGroups {
			groups = append(groups, int64(g.Base), int64(g.Terms), int64(len(g.Patches)))
			for _, p := range g.Patches {
				groups = append(groups, int64(p))
			}
		}
		c := w.Counts()
		fmt.Fprintf(&got, "%-8s pairs=%d listed=%d bonded=%d groups=%d patchatoms=%016x self=%016x pairs=%016x paircounts=%016x intra=%016x inter=%016x\n",
			w.Name, c.Pairs, c.Listed, c.Bonded, len(w.InterGroups),
			hash(patchAtoms), hash(w.Self), hash(pairs), hash(w.PairCounts), hash(intra), hash(groups))
	}

	path := filepath.Join("testdata", "workload_golden.txt")
	if *update {
		if err := os.WriteFile(path, []byte(got.String()), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("%v (run 'go test ./internal/core -run TestWorkloadGolden -update' to create)", err)
	}
	gl, wl := strings.Split(got.String(), "\n"), strings.Split(string(want), "\n")
	if len(gl) != len(wl) {
		t.Fatalf("%d lines, %s has %d", len(gl), path, len(wl))
	}
	for i := range gl {
		if gl[i] != wl[i] {
			t.Errorf("workload drifted from %s:\n got  %s\n want %s", path, gl[i], wl[i])
		}
	}
}
