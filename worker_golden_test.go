package gonamd_test

import (
	"encoding/binary"
	"flag"
	"fmt"
	"hash/fnv"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"gonamd"
)

var update = flag.Bool("update", false, "rewrite golden files")

// fmaFreeBuild is set by golden_amd64_test.go on amd64 builds, where the
// compiler never fuses a multiply-add (at any GOAMD64 level: v3 emits no
// VFMADD). Other targets may fuse them, which moves the last bits of a
// trajectory.
var fmaFreeBuild bool

// TestGoldenWorkerTrajectories pins the bits of multi-worker trajectories
// across builds: for each worker count (3 splits the reduce into uneven
// atom ranges), electrostatics and cluster geometry, 30 steps from one
// minimized water box with a fixed task assignment, hashed as FNV-64 of
// the Float64bits of positions, velocities and forces. Further rows cover
// the other stages of a step: SHAKE/RATTLE on bonds to hydrogen (dt 1 fs),
// a Langevin thermostat, and the list-free reference mode. A refactor of
// the compute or reduce phase, or of the integrator, that keeps the
// summation order leaves testdata/worker_trajectories.golden
// byte-identical; -update rewrites it.
func TestGoldenWorkerTrajectories(t *testing.T) {
	if !fmaFreeBuild {
		t.Skip("trajectory bits are pinned for GOARCH=amd64 only")
	}
	sys, st0, err := gonamd.BuildSystem(gonamd.WaterBoxSpec(20, 5))
	if err != nil {
		t.Fatal(err)
	}
	ff := gonamd.StandardForceField(6.0)
	m, err := gonamd.NewParallel(sys, ff, st0, 1, gonamd.WithClusterLists(4, 8))
	if err != nil {
		t.Fatal(err)
	}
	m.Minimize(40, 0.2)

	var got strings.Builder
	row := func(label string, w int, dt float64, opts ...gonamd.Option) {
		t.Helper()
		st := cloneState(st0)
		var e *gonamd.Parallel
		var err error
		if w == 0 {
			// The list-free reference mode: one worker, no cluster option.
			w = 1
			e, err = gonamd.NewSequential(sys, ff, st, opts...)
		} else {
			e, err = gonamd.NewParallel(sys, ff, st, w, opts...)
		}
		if err != nil {
			t.Fatal(err)
		}
		defer e.Close()
		for s := 0; s < 30; s++ {
			if err := e.Step(dt); err != nil {
				t.Fatalf("%s workers=%d step %d: %v", label, w, s, err)
			}
		}
		h := fnv.New64a()
		var buf [8]byte
		for _, arr := range [][]gonamd.V3{st.Pos, st.Vel, e.Forces()} {
			for _, v := range arr {
				for _, x := range [3]float64{v.X, v.Y, v.Z} {
					binary.LittleEndian.PutUint64(buf[:], math.Float64bits(x))
					h.Write(buf[:])
				}
			}
		}
		fmt.Fprintf(&got, "%s workers=%d %016x\n", label, w, h.Sum64())
	}
	for _, pme := range []bool{false, true} {
		for _, geom := range [][2]int{{4, 4}, {4, 8}} {
			for w := 1; w <= 4; w++ {
				opts := []gonamd.Option{gonamd.WithClusterLists(geom[0], geom[1]), gonamd.WithRebalanceEvery(0)}
				elec := "shifted"
				if pme {
					opts = append(opts, gonamd.WithPME(1.0, 0, 2))
					elec = "pme-mts2"
				}
				row(fmt.Sprintf("%s %dx%d", elec, geom[0], geom[1]), w, 0.5, opts...)
			}
		}
	}
	for w := 1; w <= 2; w++ {
		row("shake 4x8", w, 1.0, gonamd.WithClusterLists(4, 8), gonamd.WithRebalanceEvery(0), gonamd.WithHBondConstraints())
	}
	for w := 1; w <= 2; w++ {
		row("langevin 4x8", w, 0.5, gonamd.WithClusterLists(4, 8), gonamd.WithRebalanceEvery(0),
			gonamd.WithThermostat(&gonamd.Langevin{Target: 300, Gamma: 0.005, Seed: 7}))
	}
	row("reference", 0, 0.5)

	path := filepath.Join("testdata", "worker_trajectories.golden")
	if *update {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(got.String()), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if got.String() != string(want) {
		t.Errorf("trajectory hashes differ from %s:\ngot:\n%swant:\n%s", path, got.String(), want)
	}
}
