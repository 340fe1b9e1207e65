package gonamd_test

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"math"

	"gonamd"
	"gonamd/internal/ckpt"
)

// ExampleBuildSystem builds a small water box and reports its
// composition.
func ExampleBuildSystem() {
	sys, st, err := gonamd.BuildSystem(gonamd.WaterBoxSpec(15, 1))
	if err != nil {
		panic(err)
	}
	fmt.Printf("atoms: %d\n", sys.N())
	fmt.Printf("bonds: %d\n", len(sys.Bonds))
	fmt.Printf("positions: %d\n", len(st.Pos))
	// Output:
	// atoms: 336
	// bonds: 224
	// positions: 336
}

// ExampleNewSequential minimizes a water box and runs a few steps of NVE
// dynamics, checking that energy is finite and bounded.
func ExampleNewSequential() {
	sys, st, _ := gonamd.BuildSystem(gonamd.WaterBoxSpec(14, 2))
	ff := gonamd.StandardForceField(6.0)
	eng, _ := gonamd.NewSequential(sys, ff, st)
	before := eng.Energies().Potential()
	after := eng.Minimize(100, 0.2)
	fmt.Printf("minimization reduced energy: %v\n", after < before)
	eng.Run(10, 0.5)
	fmt.Printf("temperature positive: %v\n", eng.Temperature() > 0)
	// Output:
	// minimization reduced energy: true
	// temperature positive: true
}

// ExampleNewClusterSim runs the paper's bR benchmark on 16 simulated
// ASCI-Red processors and reports the parallel efficiency band.
func ExampleNewClusterSim() {
	spec := gonamd.BRSpec()
	spec.Temperature = 0
	sys, st, _ := gonamd.BuildSystem(spec)
	grid, _ := gonamd.NewGridDims(sys, spec.PatchDims, gonamd.Cutoff)
	w, _ := gonamd.BuildWorkload(spec.Name, sys, st, grid, gonamd.Cutoff, gonamd.Cutoff+1.5)

	sim, _ := gonamd.NewClusterSim(w, gonamd.ClusterConfig{
		PEs:          16,
		Model:        gonamd.ASCIRed(),
		SplitSelf:    true,
		GrainSplit:   true,
		SplitBonded:  true,
		MulticastOpt: true,
	})
	res := sim.Run()
	eff := res.SeqTime / res.AvgStep / 16
	fmt.Printf("16-PE efficiency above 80%%: %v\n", eff > 0.8)
	fmt.Printf("patches: %d\n", grid.NumPatches())
	// Output:
	// 16-PE efficiency above 80%: true
	// patches: 36
}

// ExampleNewParallel is the programmatic quickstart: build a water box,
// relax it on one inline worker over the cluster lists the dynamics run
// on, then run smooth-PME dynamics on every core with a Projections
// trace attached and ask the trace where the time went.
func ExampleNewParallel() {
	spec := gonamd.WaterBoxSpec(24, 42) // 24 Å water box
	sys, st, err := gonamd.BuildSystem(spec)
	if err != nil {
		panic(err)
	}
	ff := gonamd.StandardForceField(9.0) // 9 Å cutoff

	m, err := gonamd.NewSequential(sys, ff, st, // relax packing on one inline
		gonamd.WithClusterLists(4, 8)) // worker, same cluster lists
	if err != nil {
		panic(err)
	}
	before := m.Energies().Potential()
	after := m.Minimize(200, 0.2)

	tlog := gonamd.NewTraceLog()
	eng, err := gonamd.NewParallel(sys, ff, st, 0, // all cores
		gonamd.WithClusterLists(4, 8), // M×N cluster pair lists (4×8 is also the default)
		gonamd.WithPME(1.0, 0.35, 4),  // smooth PME, recip every 4 steps
		gonamd.WithTrace(tlog),
	)
	if err != nil {
		panic(err)
	}
	defer eng.Close() // stops the worker goroutines
	e0 := eng.Energies().Total()
	// A step fails when it diverged (non-finite energy) or SHAKE gave up.
	en, err := eng.Run(100, 0.5) // 100 × 0.5 fs
	if err != nil {
		panic(err)
	}
	// Where did the time go? The trace feeds the projections analyzer.
	busy := map[string]bool{}
	for _, c := range gonamd.AnalyzeTrace(tlog, gonamd.ProjectionsOptions{}).Categories {
		busy[string(c.Category)] = c.Seconds > 0
	}

	fmt.Printf("atoms: %d\n", sys.N())
	fmt.Printf("minimization reduced energy: %v\n", after < before)
	fmt.Printf("temperature 200-400 K: %v\n", eng.Temperature() > 200 && eng.Temperature() < 400)
	fmt.Printf("energy drift under 0.01 kcal/mol per atom: %v\n", math.Abs(en.Total()-e0) < 0.01*float64(sys.N()))
	fmt.Printf("trace profiles nonbonded and PME work: %v\n", busy["nonbonded"] && busy["pme"])
	// Output:
	// atoms: 1383
	// minimization reduced energy: true
	// temperature 200-400 K: true
	// energy drift under 0.01 kcal/mol per atom: true
	// trace profiles nonbonded and PME work: true
}

// ExampleRDF runs a short water simulation, writes a binary trajectory,
// reads it back, and computes the O-O radial distribution function and
// the oxygen mean squared displacement.
func ExampleRDF() {
	sys, st, err := gonamd.BuildSystem(gonamd.WaterBoxSpec(18, 7))
	if err != nil {
		panic(err)
	}
	ff := gonamd.StandardForceField(7.0)
	eng, err := gonamd.NewSequential(sys, ff, st, gonamd.WithClusterLists(4, 8))
	if err != nil {
		panic(err)
	}
	eng.Minimize(200, 0.2)

	var buf bytes.Buffer
	w, err := gonamd.NewTrajWriter(&buf, sys.N(), sys.Box)
	if err != nil {
		panic(err)
	}
	const frames = 40
	for f := 0; f < frames; f++ {
		if _, err := eng.Run(5, 1.0); err != nil { // 5 fs between frames
			panic(err)
		}
		if err := w.WriteFrame(int64(f*5), float64(f*5), st.Pos); err != nil {
			panic(err)
		}
	}
	if err := w.Flush(); err != nil {
		panic(err)
	}
	r, err := gonamd.NewTrajReader(&buf)
	if err != nil {
		panic(err)
	}
	all, err := r.ReadAll()
	if err != nil {
		panic(err)
	}

	// Every molecule is listed O, H, H, so atom 0 is an oxygen.
	isO := func(i int) bool { return sys.Atoms[i].Type == sys.Atoms[0].Type }
	g := gonamd.RDF(sys, all, isO, isO, 8.0, 32) // 0.25 Å bins
	peak := 0
	for b := range g {
		if g[b] > g[peak] {
			peak = b
		}
	}
	msd := gonamd.MSD(sys, all, isO)

	fmt.Printf("frames read back: %d\n", len(all))
	fmt.Printf("no O-O pair closer than 2 Å: %v\n", g[0]+g[1]+g[2]+g[3]+g[4]+g[5]+g[6]+g[7] == 0)
	fmt.Printf("first O-O peak between 2.5 and 3.25 Å: %v\n", peak >= 10 && peak < 13)
	fmt.Printf("oxygen MSD grows: %v\n", msd[len(msd)-1] > msd[1])
	// Output:
	// frames read back: 40
	// no O-O pair closer than 2 Å: true
	// first O-O peak between 2.5 and 3.25 Å: true
	// oxygen MSD grows: true
}

// ExampleNewEnsemble runs four replicas of a water box on a temperature
// ladder with Metropolis exchanges between neighboring rungs, then
// proves exact checkpoint/restart: an ensemble resumed from a mid-run
// checkpoint ends bitwise-identical to the one that never stopped.
func ExampleNewEnsemble() {
	sys, st, err := gonamd.BuildSystem(gonamd.WaterBoxSpec(14, 2024))
	if err != nil {
		panic(err)
	}
	ff := gonamd.StandardForceField(7.0)
	m, err := gonamd.NewSequential(sys, ff, st, gonamd.WithClusterLists(4, 8))
	if err != nil {
		panic(err)
	}
	m.Minimize(100, 0.2)

	// A tight ladder keeps the potential-energy distributions of
	// neighbors overlapping, which is what gives usable acceptance rates.
	ladder := gonamd.GeometricLadder(300, 330, 4)
	tlog := gonamd.NewTraceLog()
	cfg := gonamd.EnsembleConfig{Temperatures: ladder, Dt: 0.5, ExchangeEvery: 20, Seed: 7, Trace: tlog}
	ens, err := gonamd.NewEnsemble(sys, ff, st, cfg)
	if err != nil {
		panic(err)
	}
	defer ens.Close()
	if err := ens.Run(300); err != nil {
		panic(err)
	}
	att, acc := ens.ExchangeCounts()
	// The trace log covers the ensemble the way Projections covers a
	// single run: per-replica step timing plus every exchange decision.
	var decisions int64
	for _, e := range gonamd.AnalyzeTrace(tlog, gonamd.ProjectionsOptions{}).Entries {
		if e.Entry == "exchange.accept" || e.Entry == "exchange.reject" {
			decisions += int64(e.Count)
		}
	}
	fmt.Printf("ladder: %.1f K\n", ladder)
	fmt.Printf("exchange attempts per pair: %v\n", att)
	fmt.Printf("every pair accepted an exchange: %v\n", acc[0] > 0 && acc[1] > 0 && acc[2] > 0)
	fmt.Printf("trace records every exchange decision: %v\n", decisions == att[0]+att[1]+att[2])

	// Checkpoint mid-run and keep going; resume a fresh ensemble from the
	// checkpoint bytes and run it the same number of steps.
	var ck bytes.Buffer
	if err := ckpt.Save(&ck, ens.Snapshot()); err != nil {
		panic(err)
	}
	if err := ens.Run(200); err != nil {
		panic(err)
	}
	resumed, err := gonamd.NewEnsemble(sys, ff, st, cfg)
	if err != nil {
		panic(err)
	}
	defer resumed.Close()
	snap, err := ckpt.Load(&ck)
	if err != nil {
		panic(err)
	}
	if err := resumed.Restore(snap); err != nil {
		panic(err)
	}
	if err := resumed.Run(200); err != nil {
		panic(err)
	}
	fmt.Printf("steps: uninterrupted %d, resumed %d\n", ens.Step(), resumed.Step())
	fmt.Printf("kill-and-resume is bitwise-identical: %v\n", stateHash(ens) == stateHash(resumed))
	// Output:
	// ladder: [300.0 309.7 319.7 330.0] K
	// exchange attempts per pair: [8 7 8]
	// every pair accepted an exchange: true
	// trace records every exchange decision: true
	// steps: uninterrupted 500, resumed 500
	// kill-and-resume is bitwise-identical: true
}

// stateHash digests every replica's positions and velocities bit for bit.
func stateHash(e *gonamd.Ensemble) uint64 {
	h := fnv.New64a()
	var b [8]byte
	for i := 0; i < e.NumReplicas(); i++ {
		st := e.Replica(i).State()
		for _, vs := range [][]gonamd.V3{st.Pos, st.Vel} {
			for _, v := range vs {
				for _, f := range [3]float64{v.X, v.Y, v.Z} {
					binary.LittleEndian.PutUint64(b[:], math.Float64bits(f))
					h.Write(b[:])
				}
			}
		}
	}
	return h.Sum64()
}

// ExampleNewClusterSim_loadBalance walks through the paper's
// measurement-based load balancing (§3.2) on the bR benchmark at 48
// simulated PEs: static placement only, then greedy remapping followed
// by refinement.
func ExampleNewClusterSim_loadBalance() {
	spec := gonamd.BRSpec()
	spec.Temperature = 0
	sys, st, _ := gonamd.BuildSystem(spec)
	grid, _ := gonamd.NewGridDims(sys, spec.PatchDims, gonamd.Cutoff)
	w, _ := gonamd.BuildWorkload(spec.Name, sys, st, grid, gonamd.Cutoff, gonamd.Cutoff+1.5)
	cfg := gonamd.ClusterConfig{
		PEs:          48,
		Model:        gonamd.ASCIRed(),
		SplitSelf:    true,
		GrainSplit:   true,
		SplitBonded:  true,
		MulticastOpt: true,
	}

	// Static placement only: patches by recursive coordinate bisection,
	// computes at their base patch homes.
	static := cfg
	static.LB, _ = gonamd.LookupLBStrategy("none")
	sim, _ := gonamd.NewClusterSim(w, static)
	before := sim.Run()

	// The default strategy: measurement-based greedy remap, then refinement.
	sim, _ = gonamd.NewClusterSim(w, cfg)
	after := sim.Run()

	balanced := true
	for _, s := range after.LBStats {
		balanced = balanced && s.MaxLoad < 1.1*s.AvgLoad
	}
	fmt.Printf("balancing passes: %d\n", len(after.LBStats))
	fmt.Printf("each pass predicts max load within 10%% of average: %v\n", balanced)
	fmt.Printf("balanced step over twice as fast as static: %v\n", 2*after.AvgStep < before.AvgStep)
	// Output:
	// balancing passes: 2
	// each pass predicts max load within 10% of average: true
	// balanced step over twice as fast as static: true
}
