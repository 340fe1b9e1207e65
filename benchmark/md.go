package main

import (
	"fmt"
	"math"
	"math/bits"
	"runtime"
	"sync"
	"time"

	"gonamd"
	"gonamd/internal/fft"
	"gonamd/internal/forcefield"
	"gonamd/internal/pme"
	"gonamd/internal/projections"
	"gonamd/internal/seq"
	"gonamd/internal/spatial"
)

const (
	mdDt     = 0.5 // fs
	clusterM = 4
	clusterN = 8

	// Tolerances of the physics checks: 5× the largest value seen at seed
	// 11 on the full sizes (README.md, "Correctness"), except the cutoff
	// force error, whose seed value (1e-15) is rounding noise.
	maxForceErrCutoff = 1e-12  // analytic cluster kernel vs list-free cell path
	maxForceErrPME    = 1.5e-5 // tabulated Ewald + mesh vs analytic cell path (seed: 1e-6 to 2.9e-6)
	maxDriftCutoff    = 2e4    // ppm of the kinetic energy per 100 steps (seed: 1.8e3 to 3.7e3)
	maxDriftPME       = 5e4    // (seed: 5.4e3 to 9.2e3)
	maxEnergyRelDiff  = 1e-9   // parallel vs sequential potential, same positions
)

func maxDriftPPM(withPME bool) float64 {
	if withPME {
		return maxDriftPME
	}
	return maxDriftCutoff
}

// mdOptions is the engine configuration of the md workloads: 4×8
// cluster lists, fp64; md-pme adds a reciprocal sum every step and the
// tabulated Ewald real-space kernel.
func mdOptions(sz sizes, withPME bool) []gonamd.Option {
	opts := []gonamd.Option{gonamd.WithClusterLists(clusterM, clusterN)}
	if withPME {
		opts = append(opts, gonamd.WithPME(sz.pmeGrid, 0, 1), gonamd.WithTabulatedKernels(0))
	}
	return opts
}

// mdRig is a set-up md workload: the minimized state every engine
// starts from and a warmed-up parallel engine.
type mdRig struct {
	sys *gonamd.System
	ff  *gonamd.ForceField
	min *gonamd.State
	par *gonamd.Parallel

	buildS, minimizeS, constructS, totalS float64
}

// mdSetup does everything a user waits for before the first timed step:
// build the water box, minimize it, construct the parallel engine and
// run the warm-up steps (the first list build among them).
func (r *run) mdSetup(withPME bool, w int) (*mdRig, error) {
	rig := &mdRig{}
	var err error
	root := r.tr.begin("setup", noSpan)
	start := time.Now()
	var st *gonamd.State
	rig.buildS = r.tr.time("molgen.Build", root, func() {
		rig.sys, st, err = gonamd.BuildSystem(gonamd.WaterBoxSpec(r.sz.mdSide, r.seed))
	})
	if err != nil {
		return nil, err
	}
	rig.ff = gonamd.StandardForceField(r.sz.mdCutoff)
	rig.minimizeS = r.tr.time("seq.Minimize", root, func() {
		var m *gonamd.Sequential
		if m, err = gonamd.NewSequential(rig.sys, rig.ff, st, gonamd.WithClusterLists(clusterM, clusterN)); err == nil {
			m.Minimize(r.sz.mdMinimize, 0.2)
		}
	})
	if err != nil {
		return nil, err
	}
	rig.min = st
	rig.constructS = r.tr.time("gonamd.NewParallel", root, func() {
		rig.par, err = r.newPar(rig, withPME, w)
	})
	if err != nil {
		return nil, err
	}
	r.tr.time("warmup", root, func() { rig.par.Run(r.sz.mdWarm, mdDt) })
	rig.totalS = time.Since(start).Seconds()
	r.tr.end(root)
	return rig, nil
}

func (r *run) newPar(rig *mdRig, withPME bool, w int, extra ...gonamd.Option) (*gonamd.Parallel, error) {
	opts := append(mdOptions(r.sz, withPME), gonamd.WithRebalanceEvery(0))
	return gonamd.NewParallel(rig.sys, rig.ff, rig.min.Clone(), w, append(opts, extra...)...)
}

func (r *run) newSeq(rig *mdRig, withPME bool) (*gonamd.Sequential, error) {
	e, err := gonamd.NewSequential(rig.sys, rig.ff, rig.min.Clone(), mdOptions(r.sz, withPME)...)
	if err == nil {
		e.Run(r.sz.seqWarm, mdDt)
	}
	return e, err
}

// mdEngine is what the md workloads need of either engine.
type mdEngine interface {
	gonamd.Engine
	ClusterRebuilds() int
}

// stepTimes are the per-step wall seconds of one timed window. Steps
// that rebuilt the cluster list cost a list build more than the others,
// so the two kinds are summarized apart.
type stepTimes struct {
	plain    []float64 // seconds of each step that reused the list
	rebuilds int       // steps that rebuilt it
	// ratios holds, for each rebuilding step with a plain step on either
	// side, its time over the mean of those two: a cost in units of a
	// plain step taken at the same moment, which the state of the host
	// cancels out of.
	ratios []float64
	all    []float64 // every step, in order
	wall   float64   // of the whole window, chunks summed
}

// stepFor steps eng in a closed loop (one stepper, the next step starts
// when the previous one returns) until d has elapsed. Every step is one
// operation; it fails when the total energy is not finite.
func (r *run) stepFor(eng mdEngine, d time.Duration, spanName string, parent int) stepTimes {
	var st stepTimes
	var rebuilt []bool
	start := time.Now()
	for time.Since(start) < d {
		before := eng.ClusterRebuilds()
		st.all = append(st.all, r.tr.time(spanName, parent, func() { eng.Step(mdDt) }))
		rebuilt = append(rebuilt, eng.ClusterRebuilds() != before)
		r.attempted++
		if e := eng.Energies().Total(); math.IsNaN(e) || math.IsInf(e, 0) {
			r.fail(1, "%s: step %d: total energy %v is not finite", spanName, len(st.all), e)
		}
	}
	st.wall = time.Since(start).Seconds()
	for i, s := range st.all {
		switch {
		case !rebuilt[i]:
			st.plain = append(st.plain, s)
		case i > 0 && i+1 < len(st.all) && !rebuilt[i-1] && !rebuilt[i+1]:
			st.ratios = append(st.ratios, s/((st.all[i-1]+st.all[i+1])/2))
			fallthrough
		default:
			st.rebuilds++
		}
	}
	return st
}

// add appends another chunk of the same window.
func (st *stepTimes) add(o stepTimes) {
	st.plain = append(st.plain, o.plain...)
	st.ratios = append(st.ratios, o.ratios...)
	st.all = append(st.all, o.all...)
	st.rebuilds += o.rebuilds
	st.wall += o.wall
}

// rate is steps completed ÷ wall of the window: what this run saw,
// neighbours on the host included.
func (st stepTimes) rate() float64 { return float64(len(st.all)) / st.wall }

// quietRate is the step rate the engine sustains while nothing else
// contends for the processor: the quiet time of a plain step, with each
// list-rebuilding step counted as the median number of plain steps it
// was measured to cost.
func (st stepTimes) quietRate() float64 {
	cost := 1.0 // of a rebuilding step, when none had plain neighbours to compare with
	if len(st.ratios) > 0 {
		cost = median(st.ratios)
	}
	equivalent := float64(len(st.plain)) + float64(st.rebuilds)*cost
	return float64(len(st.all)) / (quiet(st.plain) * equivalent)
}

func runMD(r *run, withPME bool) error {
	// The gated numbers come from one worker and the sequential engine;
	// the traced pass runs the parallel engine at scaleWorkers.
	w, reps := gateWorkers, r.setups()
	share := 0.5 // untraced: parallel engine and sequential engine, half of --seconds each
	if r.traced {
		w = scaleWorkers
		share = 0.25 // traced: parallel untraced, parallel traced, sequential, then the layers
	}

	// Set-up is repeated so that setup_s is a median. The first rig is
	// the one measured; the timed windows are cut into one chunk per
	// set-up and interleaved with them, which spreads every engine's
	// samples over the whole run: a busy spell on the host then covers
	// some of them, not all.
	var (
		rig      *mdRig
		se       *gonamd.Sequential
		setups   []float64
		par, seq stepTimes
		layerPos []gonamd.V3
		en0      gonamd.Energies
		ms0, ms1 runtime.MemStats
		rebuild0 int
	)
	for i := 0; i < reps; i++ {
		runtime.GC() // a discarded rig must not count towards the next one's peak
		g, err := r.mdSetup(withPME, w)
		if err != nil {
			return err
		}
		setups = append(setups, g.totalS)
		if i == 0 {
			rig = g
			// The decomposed layer calls run on the positions the engine
			// holds here, after a fixed number of steps, so their counts
			// repeat exactly.
			layerPos = rig.par.State().Clone().Pos
			en0 = rig.par.Energies()
			rebuild0 = rig.par.ClusterRebuilds()
			// The sequential engine starts from the same minimized state:
			// the plain single-thread baseline row.
			if se, err = r.newSeq(rig, withPME); err != nil {
				return err
			}
		}
		chunk := r.window(share / float64(reps))
		runtime.ReadMemStats(&ms0)
		root := r.tr.begin("window.par", noSpan)
		par.add(r.stepFor(rig.par, chunk, "par.Step", root))
		r.tr.end(root)
		runtime.ReadMemStats(&ms1)
		root = r.tr.begin("window.seq", noSpan)
		seq.add(r.stepFor(se, chunk, "seq.Step", root))
		r.tr.end(root)
	}
	r.setN("setup_s", median(setups), len(setups))
	r.setN("steps_per_s", par.quietRate(), len(par.all))
	r.setN("seq_steps_per_s", seq.quietRate(), len(seq.all))

	// Energy drift relative to the kinetic energy (the total is a small
	// difference of large terms), per 100 steps so that windows of
	// different length compare.
	en1 := rig.par.Energies()
	n := float64(len(par.all))
	drift := 1e6 * math.Abs(en1.Total()-en0.Total()) / ((en0.Kinetic + en1.Kinetic) / 2) * 100 / n
	fmt.Printf("  NVE drift %.0f ppm of the kinetic energy per 100 steps, over %d steps\n", drift, len(par.all))
	if limit := maxDriftPPM(withPME); !(drift <= limit) {
		r.fail(0, "NVE drift %.3g ppm per 100 steps (over %d steps) exceeds %g", drift, len(par.all), limit)
	}
	if err := r.checkForces(rig, withPME); err != nil {
		return err
	}
	if !r.traced {
		return nil
	}

	r.set("molgen.build_s", rig.buildS)
	r.set("seq.minimize_s", rig.minimizeS)
	r.set("engine.construct_s", rig.constructS)
	r.setN("par.steps_per_s", par.rate(), len(par.all))
	r.setN("par.step_ms_p50", 1e3*median(par.all), len(par.all))
	r.setN("engine.step_ms_p95", 1e3*percentile(par.all, 95), len(par.all))
	r.setN("engine.step_ms_max", 1e3*percentile(par.all, 100), len(par.all))
	if p := tailPercentile(len(par.all)); p > 50 {
		fmt.Printf("  par.Step tail: p%g = %.3f ms over %d steps\n", p, 1e3*percentile(par.all, p), len(par.all))
	}
	r.set("engine.allocs_per_step", float64(ms1.Mallocs-ms0.Mallocs)/n)
	r.set("engine.bytes_per_step", float64(ms1.TotalAlloc-ms0.TotalAlloc)/n)
	r.set("engine.nve_drift_ppm", drift)
	r.set("spatial.rebuilds_per_100_steps", 100*float64(rig.par.ClusterRebuilds()-rebuild0)/n)
	r.set("par.imbalance_pct", imbalancePct(rig.par.WorkerLoads()))
	if scaleWorkers <= runtime.NumCPU() {
		// With fewer cores than workers a wall-clock ratio says nothing.
		r.set("par.speedup", par.rate()/seq.rate())
		r.set("par.efficiency_pct", 100*par.rate()/seq.rate()/scaleWorkers)
	}
	if err := r.mdTracedWindow(rig, withPME, par.rate(), share); err != nil {
		return err
	}
	return r.mdLayers(rig, withPME, layerPos, median(par.all))
}

func imbalancePct(loads []float64) float64 {
	sum, peak := 0.0, 0.0
	for _, l := range loads {
		sum += l
		peak = max(peak, l)
	}
	if sum == 0 {
		return 0
	}
	return 100 * (peak/(sum/float64(len(loads))) - 1)
}

// totalForces returns the fast forces plus, under PME, the slow
// reciprocal ones.
func totalForces(fast, slow []gonamd.V3) []gonamd.V3 {
	out := append([]gonamd.V3(nil), fast...)
	for i := range slow {
		out[i] = out[i].Add(slow[i])
	}
	return out
}

// checkForces compares the parallel engine's forces at its current
// positions with the list-free cell-path sequential engine (analytic
// kernel, no cluster lists, no table) on the same positions, and its
// potential energy with the sequential engine configured like it.
func (r *run) checkForces(rig *mdRig, withPME bool) error {
	parForces := totalForces(rig.par.Forces(), rig.par.RecipForces())
	parPot := rig.par.Energies().Potential()
	pos := rig.par.State().Clone()

	var refOpts []gonamd.Option
	tol := maxForceErrCutoff
	if withPME {
		refOpts = []gonamd.Option{gonamd.WithPME(r.sz.pmeGrid, 0, 1)}
		tol = maxForceErrPME
	}
	ref, err := gonamd.NewSequential(rig.sys, rig.ff, pos.Clone(), refOpts...)
	if err != nil {
		return err
	}
	refForces := totalForces(ref.Forces(), ref.RecipForces())
	peak, worst := 0.0, 0.0
	for i := range refForces {
		peak = max(peak, refForces[i].Norm())
		worst = max(worst, parForces[i].Sub(refForces[i]).Norm())
	}
	rel := worst / peak
	r.set("engine.force_err_max_rel", rel)
	fmt.Printf("  force error %.3g (max |Δf| ÷ max |f|) against the list-free cell-path engine\n", rel)
	if !(rel <= tol) {
		r.fail(0, "force error %.3g (max |Δf| / max |f|) against the cell-path engine exceeds %g", rel, tol)
	}

	same, err := gonamd.NewSequential(rig.sys, rig.ff, pos, mdOptions(r.sz, withPME)...)
	if err != nil {
		return err
	}
	seqPot := same.Energies().Potential()
	if d := math.Abs(parPot-seqPot) / math.Abs(seqPot); !(d <= maxEnergyRelDiff) {
		r.fail(0, "parallel and sequential potential energies differ by %.3g relative (limit %g)", d, maxEnergyRelDiff)
	}
	return nil
}

// mdTracedWindow repeats the parallel window on a fresh engine with the
// engine's own trace log attached and a benchmark span around every
// Step, then reads the phase budget through projections.Analyze.
func (r *run) mdTracedWindow(rig *mdRig, withPME bool, untracedRate, share float64) error {
	tlog := gonamd.NewTraceLog()
	eng, err := r.newPar(rig, withPME, scaleWorkers, gonamd.WithTrace(tlog))
	if err != nil {
		return err
	}
	eng.Run(r.sz.mdWarm, mdDt)
	tlog.Records = tlog.Records[:0] // the budget covers the timed window only

	root := r.tr.begin("window.par.traced", noSpan)
	traced := r.stepFor(eng, r.window(share), "par.Step.traced", root)
	r.tr.end(root)
	r.set("trace.overhead_pct", 100*(1-traced.rate()/untracedRate))

	// Force evaluation on its own, the displacement scan that Invalidate
	// forces on the drift guard included.
	evals := make([]float64, 0, r.sz.layerReps)
	for i := 0; i < r.sz.layerReps; i++ {
		evals = append(evals, r.tr.time("par.ComputeForces", noSpan, func() {
			eng.Invalidate()
			eng.ComputeForces()
			eng.RecipForces()
		}))
	}
	r.setN("engine.force_eval_ms_p50", 1e3*median(evals), len(evals))

	// Phase budget: each category's share of the W × wall PE-seconds of
	// the traced window; what no phase record covers (workers waiting
	// at the serial phases, the step loop itself) is "other".
	rep := projections.Analyze(tlog, projections.Options{PEs: scaleWorkers})
	budget := float64(scaleWorkers) * rep.Span
	cat := map[string]float64{}
	for _, c := range rep.Categories {
		cat[c.Category] = 100 * c.Seconds / budget
	}
	named := cat["nonbonded"] + cat["bonded"] + cat["pme"] + cat["comm"] + cat["integration"]
	r.set("par.nonbonded_pct", cat["nonbonded"])
	r.set("par.bonded_pct", cat["bonded"])
	r.set("par.pme_pct", cat["pme"])
	r.set("par.reduce_pct", cat["comm"])
	r.set("par.integrate_pct", cat["integration"])
	r.set("par.other_pct", 100*rep.IdleSeconds/budget+100*rep.BusySeconds/budget-named)
	r.set("engine.integrate_ms", 1e3*cat["integration"]/100*budget/float64(len(traced.all)))
	if sum := named + r.values["par.other_pct"]; math.Abs(sum-100) > 0.5 {
		r.fail(0, "phase budget sums to %.2f%%, not 100 ± 0.5: recorded phases exceed the window", sum)
	}
	return nil
}

// goPool is a W-goroutine fft.Pool: fork on Run, join before returning.
type goPool struct{ n int }

func (p goPool) Workers() int { return p.n }

func (p goPool) Run(f func(w int)) {
	var wg sync.WaitGroup
	for w := 0; w < p.n; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			f(w)
		}(w)
	}
	wg.Wait()
}

// mdLayers times the decomposed single-thread calls on the positions
// the parallel engine held after its warm-up: list build, nonbonded kernel over all
// i-clusters, bonded terms and, for md-pme, the reciprocal sum and the
// 3D FFT on the same mesh.
func (r *run) mdLayers(rig *mdRig, withPME bool, pos []gonamd.V3, stepS float64) error {
	root := r.tr.begin("layers", noSpan)
	defer r.tr.end(root)
	sys, reps := rig.sys, r.sz.layerReps
	timeReps := func(name string, f func()) float64 {
		ts := make([]float64, 0, reps)
		for i := 0; i < reps; i++ {
			ts = append(ts, r.tr.time(name, root, f))
		}
		return median(ts)
	}

	// spatial: cluster list build.
	builder, err := spatial.NewClusterBuilder(sys.Box, clusterM, clusterN, rig.ff.Cutoff+seq.DefaultClusterSkin)
	if err != nil {
		return err
	}
	var list *spatial.ClusterList
	r.setN("spatial.list_build_ms", 1e3*timeReps("spatial.ClusterBuilder.Build", func() {
		list = builder.Build(pos, sys.ForEachExcludedPair)
	}), reps)

	// forcefield: nonbonded kernel, one thread, every i-cluster.
	ff := rig.ff
	var tab *forcefield.InteractionTable
	if withPME {
		ff = ff.WithEwald(3.12 / ff.Cutoff) // the engine's auto-derived β
		r.set("forcefield.table_build_ms", 1e3*r.tr.time("forcefield.BuildInteractionTable", root, func() {
			tab, err = ff.BuildInteractionTable(0)
		}))
		if err != nil {
			return err
		}
	}
	types := make([]int32, sys.N())
	charges := make([]float64, sys.N())
	for i := range types {
		types[i], charges[i] = sys.Atoms[i].Type, sys.Atoms[i].Charge
	}
	var data forcefield.ClusterData
	data.LoadStatic(list, types, charges)
	data.LoadPositions(list, pos)
	slots := list.Slots()
	fx, fy, fz := make([]float64, slots, slots+8), make([]float64, slots, slots+8), make([]float64, slots, slots+8)
	ics := make([]int32, list.NumI())
	for i := range ics {
		ics[i] = int32(i)
	}
	kernel := "forcefield.NonbondedCluster"
	if withPME {
		kernel = "forcefield.NonbondedClusterTab"
	}
	nbS := timeReps(kernel, func() {
		if withPME {
			ff.NonbondedClusterTab(tab, list, &data, ics, fx, fy, fz)
		} else {
			ff.NonbondedCluster(list, &data, ics, fx, fy, fz)
		}
	})
	inCutoff := pairsInCutoff(list, pos, ff.Cutoff)
	tileSlots := len(list.Entries) * clusterM * clusterN
	r.set("forcefield.pairs_in_cutoff", float64(inCutoff))
	r.set("spatial.tile_slots", float64(tileSlots))
	r.set("spatial.useful_pair_pct", 100*float64(inCutoff)/float64(tileSlots))
	r.setN("forcefield.nb_ms", 1e3*nbS, reps)
	r.set("forcefield.nb_ns_per_useful_pair", 1e9*nbS/float64(inCutoff))
	fmt.Printf("  %s on one thread ÷ %d workers is %.1f%% of the parallel step\n", kernel, scaleWorkers, 100*nbS/stepS/scaleWorkers)

	// forcefield: bonded terms.
	r.setN("forcefield.bonded_ms", 1e3*timeReps("forcefield.bonded", func() {
		box := sys.Box
		for _, b := range sys.Bonds {
			ff.BondForce(b.Type, pos[b.I], pos[b.J], box)
		}
		for _, a := range sys.Angles {
			ff.AngleForce(a.Type, pos[a.I], pos[a.J], pos[a.K], box)
		}
		for _, d := range sys.Dihedrals {
			ff.DihedralForce(d.Type, pos[d.I], pos[d.J], pos[d.K], pos[d.L], box)
		}
		for _, d := range sys.Impropers {
			ff.ImproperForce(d.Type, pos[d.I], pos[d.J], pos[d.K], pos[d.L], box)
		}
	}), reps)

	if !withPME {
		return nil
	}

	// pme / fft: reciprocal sum serial and on W workers, and the bare
	// forward + inverse 3D FFT on a mesh of the same dimensions.
	recip, err := pme.NewRecip(sys.Box, r.sz.pmeGrid, ff.EwaldBeta)
	if err != nil {
		return err
	}
	forces := make([]gonamd.V3, sys.N())
	recipS := timeReps("pme.Recip.Compute", func() { recip.Compute(pos, charges, forces, fft.Serial{}) })
	recipParS := timeReps("pme.Recip.Compute.par", func() { recip.Compute(pos, charges, forces, goPool{scaleWorkers}) })
	mesh, err := fft.NewMesh3(recip.K)
	if err != nil {
		return err
	}
	for i := range mesh.Re {
		mesh.Re[i] = float64(i%17) - 8
	}
	fftS := timeReps("fft.Mesh3.Forward+Inverse", func() {
		mesh.Forward(fft.Serial{})
		mesh.Inverse(fft.Serial{})
	})
	r.set("pme.mesh_points", float64(recip.MeshPoints()))
	r.setN("pme.recip_ms", 1e3*recipS, reps)
	r.setN("pme.recip_par_ms", 1e3*recipParS, reps)
	r.setN("fft.fft3d_ms", 1e3*fftS, reps)
	r.set("pme.spread_gather_ms", 1e3*(recipS-fftS))
	fmt.Printf("  pme.recip_par_ms is %.1f%% of the parallel step\n", 100*recipParS/stepS)
	return nil
}

// pairsInCutoff counts the listed atom pairs inside the cutoff at pos:
// the one "useful pair" unit every kernel number is normalized by.
func pairsInCutoff(l *spatial.ClusterList, pos []gonamd.V3, cutoff float64) int {
	c2, count := cutoff*cutoff, 0
	for ic := 0; ic < l.NumI(); ic++ {
		for _, e := range l.Entries[l.EntryOff[ic]:l.EntryOff[ic+1]] {
			for mask := e.Mask; mask != 0; mask &= mask - 1 {
				bit := bits.TrailingZeros64(mask)
				ai := l.Atom[ic*l.M+bit/l.N]
				aj := l.Atom[int(e.J)*l.N+bit%l.N]
				if gonamd.MinImage(pos[ai], pos[aj], l.Box).Norm2() < c2 {
					count++
				}
			}
		}
	}
	return count
}
