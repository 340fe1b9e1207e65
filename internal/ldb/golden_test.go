package ldb

import (
	"bytes"
	"encoding/binary"
	"flag"
	"fmt"
	"hash/fnv"
	"os"
	"path/filepath"
	"testing"

	"gonamd/internal/xrand"
)

var update = flag.Bool("update", false, "rewrite golden files")

// tieProblem builds a problem on which the strategies' tie rules decide
// almost every choice: loads come from three discrete values (and one
// object in forty weighs nothing), every PE carries the same background, some
// objects need no patch at all (like the simulation's x-pencils), and the
// start is clustered on a quarter of the machine.
func tieProblem(seed uint64, npe int) *Problem {
	rng := xrand.New(seed)
	npatch := npe/2 + 8
	p := &Problem{NumPE: npe, NumPatches: npatch, PatchHome: make([]int, npatch), Background: make([]float64, npe)}
	for t := range p.PatchHome {
		p.PatchHome[t] = (3 * t) % npe
	}
	for pe := range p.Background {
		p.Background[pe] = 1e-3
	}
	levels := []float64{1e-3, 2e-3, 4e-3}
	for i := 0; i < 6*npe; i++ {
		o := Object{
			Load:       levels[rng.Intn(len(levels))],
			Migratable: rng.Intn(8) != 0,
			PE:         rng.Intn(max(1, npe/4)),
		}
		if rng.Intn(40) == 0 {
			o.Load = 0
		}
		switch rng.Intn(6) {
		case 0: // no patches
		case 1, 2:
			o.Patches = []int{rng.Intn(npatch)}
		default:
			a := rng.Intn(npatch)
			o.Patches = []int{a, (a + 1 + rng.Intn(npatch-1)) % npatch}
		}
		p.Objects = append(p.Objects, o)
	}
	return p
}

type namedStrategy struct {
	name  string
	strat Strategy
}

// goldenStrategies are the configurations the assignment golden pins:
// every registered strategy at its defaults, plus the building blocks and
// non-default group sizes and thresholds.
func goldenStrategies() []namedStrategy {
	var out []namedStrategy
	for _, name := range Names() {
		s, err := Lookup(name)
		if err != nil {
			panic(err)
		}
		out = append(out, namedStrategy{name, s})
	}
	return append(out, []namedStrategy{
		{"Greedy", &Greedy{}},
		{"Refine", &Refine{}},
		{"Hierarchical/4", &Hierarchical{GroupSize: 4}},
		{"Hierarchical/37", &Hierarchical{GroupSize: 37}},
		{"GreedyRefine/1.3,1.02", &GreedyRefine{GreedyOverload: 1.3, RefineOverload: 1.02}},
	}...)
}

// assignHash is the FNV-64a hash of an assignment, one little-endian
// int32 per object.
func assignHash(assign []int) uint64 {
	h := fnv.New64a()
	var b [4]byte
	for _, pe := range assign {
		binary.LittleEndian.PutUint32(b[:], uint32(int32(pe)))
		h.Write(b[:])
	}
	return h.Sum64()
}

// TestGoldenAssignments pins every strategy's exact assignment, and the
// proxy statistics Evaluate derives from it, on random and tie-heavy
// problems from 1 to 2048 PEs, with and without a Background, at passes
// 0 and 1. The strategies are pure functions of the Problem, so any
// change to a tie rule, an iteration order or a threshold comparison
// changes the file.
func TestGoldenAssignments(t *testing.T) {
	var buf bytes.Buffer
	for _, npe := range []int{1, 4, 16, 64, 256, 1024, 2048} {
		problems := []struct {
			kind string
			p    *Problem
		}{
			{"random", randomProblem(uint64(1000+npe), npe, npe/2+8, 4*npe)},
			{"ties", tieProblem(uint64(2000+npe), npe)},
		}
		for _, pr := range problems {
			if err := pr.p.Validate(); err != nil {
				t.Fatal(err)
			}
			nilBG := *pr.p
			nilBG.Background = nil
			for _, bg := range []struct {
				name string
				p    *Problem
			}{{"bg", pr.p}, {"nil", &nilBG}} {
				for _, s := range goldenStrategies() {
					for pass := 0; pass <= 1; pass++ {
						assign := s.strat.Map(bg.p, pass)
						checkAssignment(t, bg.p, assign, s.name)
						st := Evaluate(bg.p, assign)
						fmt.Fprintf(&buf, "%-22s pass=%d pes=%-4d %-6s bg=%-3s %016x proxies=%d maxproxies=%d\n",
							s.name, pass, npe, pr.kind, bg.name, assignHash(assign), st.Proxies, st.MaxProxiesPerPatch)
					}
				}
			}
		}
	}
	path := filepath.Join("testdata", "assign_golden.txt")
	if *update {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, buf.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("%v (run 'go test ./internal/ldb -update' to create)", err)
	}
	if !bytes.Equal(buf.Bytes(), want) {
		got := bytes.Split(buf.Bytes(), []byte("\n"))
		exp := bytes.Split(want, []byte("\n"))
		for i := 0; i < len(got) && i < len(exp); i++ {
			if !bytes.Equal(got[i], exp[i]) {
				t.Fatalf("assignments drifted from %s; first difference at line %d:\n got  %s\n want %s",
					path, i+1, got[i], exp[i])
			}
		}
		t.Fatalf("assignments drifted from %s: %d lines, want %d", path, len(got), len(exp))
	}
}
