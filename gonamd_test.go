package gonamd_test

import (
	"bytes"
	"math"
	"testing"

	"gonamd"
	"gonamd/internal/ckpt"
)

// TestFacadeEndToEnd exercises the public API the way the README's
// quickstart does: build, minimize, run sequential and parallel dynamics,
// and run a small cluster simulation.
func TestFacadeEndToEnd(t *testing.T) {
	spec := gonamd.WaterBoxSpec(16, 99)
	sys, st, err := gonamd.BuildSystem(spec)
	if err != nil {
		t.Fatal(err)
	}
	ff := gonamd.StandardForceField(7.0)

	seqEng, err := gonamd.NewSequential(sys, ff, st)
	if err != nil {
		t.Fatal(err)
	}
	seqEng.Minimize(50, 0.2)
	e0 := seqEng.Energies().Total()
	seqEng.Run(10, 0.5)
	if math.Abs(seqEng.Energies().Total()-e0) > 0.1*math.Abs(e0)+50 {
		t.Errorf("sequential energy jumped: %v -> %v", e0, seqEng.Energies().Total())
	}

	parEng, err := gonamd.NewParallel(sys, ff, st, 2)
	if err != nil {
		t.Fatal(err)
	}
	parEng.Run(5, 0.5)
	if parEng.Temperature() <= 0 {
		t.Error("parallel run lost all kinetic energy")
	}
}

func TestFacadeClusterSim(t *testing.T) {
	spec := gonamd.BRSpec()
	spec.Temperature = 0
	sys, st, err := gonamd.BuildSystem(spec)
	if err != nil {
		t.Fatal(err)
	}
	grid, err := gonamd.NewGridDims(sys, spec.PatchDims, gonamd.Cutoff)
	if err != nil {
		t.Fatal(err)
	}
	w, err := gonamd.BuildWorkload(spec.Name, sys, st, grid, gonamd.Cutoff, gonamd.Cutoff+1.5)
	if err != nil {
		t.Fatal(err)
	}
	for _, model := range []gonamd.MachineModel{gonamd.ASCIRed(), gonamd.T3E(), gonamd.Origin2000()} {
		sim, err := gonamd.NewClusterSim(w, gonamd.ClusterConfig{
			PEs:          8,
			Model:        model,
			SplitSelf:    true,
			GrainSplit:   true,
			SplitBonded:  true,
			MulticastOpt: true,
		})
		if err != nil {
			t.Fatal(err)
		}
		res := sim.Run()
		speedup := res.SeqTime / res.AvgStep
		if speedup < 5 || speedup > 8 {
			t.Errorf("%s: 8-PE speedup %.2f out of range", model.Name, speedup)
		}
	}
}

func TestMachineModelsOrdering(t *testing.T) {
	// The Origin's CPUs are the fastest of the three, ASCI-Red's the
	// slowest; sequential time ordering must reflect that.
	c := gonamd.ASCIRed()
	tt := gonamd.T3E()
	o := gonamd.Origin2000()
	if !(o.CPUFactor < tt.CPUFactor && tt.CPUFactor < c.CPUFactor) {
		t.Errorf("CPU factors out of order: origin %v, t3e %v, asci %v", o.CPUFactor, tt.CPUFactor, c.CPUFactor)
	}
}

func TestFacadeConstraintsAndTrajectory(t *testing.T) {
	spec := gonamd.WaterBoxSpec(14, 55)
	sys, st, err := gonamd.BuildSystem(spec)
	if err != nil {
		t.Fatal(err)
	}
	ff := gonamd.StandardForceField(6.0)
	eng, err := gonamd.NewSequential(sys, ff, st, gonamd.WithHBondConstraints())
	if err != nil {
		t.Fatal(err)
	}
	eng.Minimize(100, 0.2)

	var buf bytes.Buffer
	w, err := gonamd.NewTrajWriter(&buf, sys.N(), sys.Box)
	if err != nil {
		t.Fatal(err)
	}
	for s := 0; s < 5; s++ {
		if err := eng.Step(2.0); err != nil {
			t.Fatal(err)
		}
		if err := w.WriteFrame(int64(s), float64(s)*2, st.Pos); err != nil {
			t.Fatal(err)
		}
	}
	if dev, n := hBondDeviation(sys, ff, st); n != len(sys.Bonds) || dev > 1e-6 {
		t.Errorf("%d of %d water bonds constrained, worst relative deviation %.2e", n, len(sys.Bonds), dev)
	}
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	r, err := gonamd.NewTrajReader(&buf)
	if err != nil {
		t.Fatal(err)
	}
	frames, err := r.ReadAll()
	if err != nil {
		t.Fatal(err)
	}
	if len(frames) != 5 {
		t.Fatalf("frames = %d", len(frames))
	}
	msd := gonamd.MSD(sys, frames, func(int) bool { return true })
	if len(msd) != 5 || msd[4] <= 0 {
		t.Errorf("MSD = %v", msd)
	}
}

func TestFacadeNVT(t *testing.T) {
	spec := gonamd.WaterBoxSpec(13, 66)
	sys, st, err := gonamd.BuildSystem(spec)
	if err != nil {
		t.Fatal(err)
	}
	ff := gonamd.StandardForceField(6.0)
	eng, err := gonamd.NewSequential(sys, ff, st, gonamd.WithThermostat(&gonamd.Berendsen{Target: 200, Tau: 20}))
	if err != nil {
		t.Fatal(err)
	}
	eng.Minimize(100, 0.2)
	if _, err := eng.Run(150, 0.5); err != nil {
		t.Fatal(err)
	}
	if temp := eng.Temperature(); math.Abs(temp-200) > 60 {
		t.Errorf("NVT temperature %.1f, want near 200", temp)
	}
}

// TestFacadeEnsemble exercises the replica-exchange API end to end:
// build, run with exchanges, checkpoint to a buffer, resume into a fresh
// ensemble, and verify the continuation is bitwise-identical.
func TestFacadeEnsemble(t *testing.T) {
	sys, st, err := gonamd.BuildSystem(gonamd.WaterBoxSpec(12, 4))
	if err != nil {
		t.Fatal(err)
	}
	ff := gonamd.StandardForceField(6.0)
	m, err := gonamd.NewSequential(sys, ff, st)
	if err != nil {
		t.Fatal(err)
	}
	m.Minimize(30, 0.2)

	cfg := gonamd.EnsembleConfig{
		Temperatures:  gonamd.GeometricLadder(300, 400, 3),
		ExchangeEvery: 10,
		Seed:          21,
		Trace:         gonamd.NewTraceLog(),
	}
	ens, err := gonamd.NewEnsemble(sys, ff, st, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := ens.Run(20); err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := ckpt.Save(&buf, ens.Snapshot()); err != nil {
		t.Fatal(err)
	}
	if err := ens.Run(20); err != nil {
		t.Fatal(err)
	}

	resumed, err := gonamd.NewEnsemble(sys, ff, st, cfg)
	if err != nil {
		t.Fatal(err)
	}
	snap, err := ckpt.Load(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if err := resumed.Restore(snap); err != nil {
		t.Fatal(err)
	}
	if err := resumed.Run(20); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < ens.NumReplicas(); i++ {
		a, b := ens.Replica(i).State(), resumed.Replica(i).State()
		for k := range a.Pos {
			if a.Pos[k] != b.Pos[k] || a.Vel[k] != b.Vel[k] {
				t.Fatalf("replica %d diverged after resume", i)
			}
		}
	}
	for i, rate := range ens.AcceptanceRates() {
		if rate < 0 || rate > 1 {
			t.Errorf("pair %d acceptance rate %v outside [0, 1]", i, rate)
		}
	}
	if len(cfg.Trace.Records) == 0 {
		t.Error("ensemble run left no trace records")
	}
}
