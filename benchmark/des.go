package main

import (
	"fmt"
	"math"
	"runtime"
	"time"

	"gonamd"
	"gonamd/internal/bench"
	"gonamd/internal/converse"
	"gonamd/internal/core"
	"gonamd/internal/ldb"
	"gonamd/internal/machine"
	"gonamd/internal/molgen"
	"gonamd/internal/spatial"
	"gonamd/internal/xrand"
)

// schedule is the DES's three-stage protocol: warm-up steps, first
// balancing pass, refinement steps, second pass, measured steps.
type schedule struct{ warm, refine, measure int }

var (
	// paperSchedule is core's default, the one the paper's tables use;
	// the traced sweep, whose model results are compared with the paper,
	// runs it.
	paperSchedule = schedule{3, 3, 6}
	// timedSchedule is what the untraced passes run: the same protocol
	// with fewer steps per stage, so that one simulation takes 0.3–0.7 s
	// instead of 0.8–1.6 s and a run holds eleven samples of it instead
	// of four. The quiet time of a simulation is only as good as the
	// chance that one sample falls in a quiet spell of the host.
	timedSchedule = schedule{1, 1, 2}
)

// steps is how many steps a simulation executes: the three stages and
// the one after the last balancing pass, which is not measured.
func (s schedule) steps() float64 { return float64(s.warm + s.refine + s.measure + 1) }

// paperStepS is the paper's step time (s) on ASCI-Red by system name and
// PE count, for the rows this workload simulates: Table 2 (ApoA-I) and,
// for the toy-size run, Table 4 (bR).
var paperStepS = map[string]map[int]float64{
	molgen.ApoA1().Name: {1: 57.1, 64: 0.964, 256: 0.259, 1024: 0.0822},
	molgen.BR().Name:    {1: 1.47, 8: 0.196},
}

// desSim is one configuration of the fixed set.
type desSim struct {
	name string
	cfg  core.Config
}

// desOutcome is what a sim produced: the model results, which must
// repeat exactly, and the host time it took.
type desOutcome struct {
	res   *core.Result
	hostS float64
}

func desConfig(pes int, scale bool, sched schedule) core.Config {
	cfg := bench.StdConfig(machine.ASCIRed(), pes)
	if scale {
		cfg = bench.ScaleConfig(machine.ASCIRed(), pes)
	}
	cfg.WarmSteps, cfg.RefineSteps, cfg.MeasureSteps = sched.warm, sched.refine, sched.measure
	return cfg
}

// desSetup builds the benchmark system and measures its workload, the
// set-up every DES user pays before the first simulation.
func (r *run) desSetup() (w *core.Workload, buildS, workloadS, totalS float64, err error) {
	root := r.tr.begin("setup", noSpan)
	defer r.tr.end(root)
	start := time.Now()
	spec := r.sz.desSpec()
	spec.Seed = r.seed
	spec.Temperature = 0 // velocities are irrelevant to the cluster simulation
	var sys *gonamd.System
	var st *gonamd.State
	buildS = r.tr.time("molgen.Build", root, func() { sys, st, err = gonamd.BuildSystem(spec) })
	if err != nil {
		return nil, 0, 0, 0, err
	}
	grid, err := spatial.NewGridDims(spec.Box, spec.PatchDims, molgen.Cutoff)
	if err != nil {
		return nil, 0, 0, 0, err
	}
	workloadS = r.tr.time("core.BuildWorkload", root, func() {
		w, err = core.BuildWorkload(spec.Name, sys, st, grid, molgen.Cutoff, bench.ListDist)
	})
	return w, buildS, workloadS, time.Since(start).Seconds(), err
}

// simulate runs one configuration. It is one operation: it fails when
// the simulated step time is not a positive finite number, or when a
// model result differs from the first run of the same configuration.
func (r *run) simulate(w *core.Workload, s desSim, parent int, first map[string]*core.Result) (desOutcome, error) {
	var sim *core.Sim
	var err error
	id := r.tr.begin("sim."+s.name, parent)
	start := time.Now()
	r.tr.time("core.NewSim", id, func() { sim, err = core.NewSim(w, s.cfg) })
	if err != nil {
		return desOutcome{}, err
	}
	var res *core.Result
	r.tr.time("core.Sim.Run", id, func() { res = sim.Run() })
	host := time.Since(start).Seconds()
	r.tr.end(id)

	r.attempted++
	switch prev := first[s.name]; {
	case !(res.AvgStep > 0) || math.IsInf(res.AvgStep, 0):
		r.fail(1, "sim %s: simulated step time %v", s.name, res.AvgStep)
	case prev == nil:
		first[s.name] = res
	case res.AvgStep != prev.AvgStep || res.TotalMsgs != prev.TotalMsgs || res.TotalBytes != prev.TotalBytes:
		r.fail(1, "sim %s does not repeat: step %v vs %v, msgs %d vs %d, bytes %d vs %d", s.name,
			res.AvgStep, prev.AvgStep, res.TotalMsgs, prev.TotalMsgs, res.TotalBytes, prev.TotalBytes)
	}
	return desOutcome{res: res, hostS: host}, nil
}

func runDES(r *run) error {
	pes := r.sz.desPEs
	top := pes[len(pes)-1]
	sched := timedSchedule
	if r.traced {
		sched = paperSchedule
	}
	seqSim := desSim{"std-1", desConfig(1, false, sched)}
	topSim := desSim{fmt.Sprintf("std-%d", top), desConfig(top, false, sched)}
	scaleSim := desSim{fmt.Sprintf("hier+tree-%d", top), desConfig(top, true, sched)}
	// The sequential simulation is the cheapest of the set and runs twice
	// a pass, for twice the samples of its quiet time.
	set := []desSim{seqSim, topSim, seqSim, scaleSim}
	first := map[string]*core.Result{}

	// Set-up is repeated so that setup_s is a median; the first workload
	// is the one simulated. Untraced, whole passes over the fixed set are
	// interleaved with the set-ups (so a busy spell on the host covers
	// some samples, not all) until --seconds of simulating have elapsed,
	// and never fewer than two, so every result is checked against a
	// repeat.
	var (
		w                *core.Workload
		setups           []float64
		topHost, seqHost []float64
		simulating       time.Duration
		passes           int
	)
	morePasses := func() bool { return !r.traced && (passes < 2 || simulating < r.seconds) }
	for i := 0; i < r.setups() || morePasses(); i++ {
		if i < r.setups() {
			runtime.GC() // a discarded workload must not count towards the next one's peak
			built, buildS, workloadS, totalS, err := r.desSetup()
			if err != nil {
				return err
			}
			setups = append(setups, totalS)
			if i == 0 {
				w = built
				r.set("molgen.build_s", buildS)
				r.set("core.workload_build_s", workloadS)
			}
		}
		if !morePasses() {
			continue
		}
		runtime.GC() // every pass starts from the same heap, for a peak that repeats
		start := time.Now()
		for _, s := range set {
			out, err := r.simulate(w, s, noSpan, first)
			if err != nil {
				return err
			}
			if s.name == seqSim.name {
				seqHost = append(seqHost, out.hostS)
			} else {
				topHost = append(topHost, out.hostS)
			}
		}
		simulating += time.Since(start)
		passes++
	}
	r.setN("setup_s", median(setups), len(setups))
	if r.traced {
		return r.desLayers(w, first, scaleSim)
	}

	// The rates are simulated steps per host second at the quiet time of
	// a headline-scale simulation (either configuration) and of the
	// sequential one.
	r.setN("steps_per_s", sched.steps()/quiet(topHost), len(topHost))
	r.setN("seq_steps_per_s", sched.steps()/quiet(seqHost), len(seqHost))
	fmt.Printf("  simulated speedup at %d PEs on the short timing schedule: %.1f\n", top,
		first[seqSim.name].AvgStep/first[topSim.name].AvgStep)
	return nil
}

func imbalanceOf(s ldb.Stats) float64 {
	if s.AvgLoad == 0 {
		return 0
	}
	return 100 * s.Imbalance / s.AvgLoad
}

// desLayers is the traced pass: the full PE sweep once with spans, then
// the layers under the simulator on their own.
func (r *run) desLayers(w *core.Workload, first map[string]*core.Result, scaleSim desSim) error {
	root := r.tr.begin("sweep", noSpan)
	pes := r.sz.desPEs
	outs := map[int]desOutcome{}
	for _, n := range pes {
		s := desSim{fmt.Sprintf("std-%d", n), desConfig(n, false, paperSchedule)}
		out, err := r.simulate(w, s, root, first)
		if err != nil {
			return err
		}
		outs[n] = out
	}
	scale, err := r.simulate(w, scaleSim, root, first)
	if err != nil {
		return err
	}
	r.tr.end(root)

	top := pes[len(pes)-1]
	one, head := outs[1], outs[top]
	r.set("core.host_s_64", outs[pes[1]].hostS)
	r.set("core.host_s_256", outs[pes[len(pes)-2]].hostS)
	r.set("core.host_s_1024", head.hostS)
	r.set("core.msgs_total", float64(head.res.TotalMsgs))
	r.set("core.bytes_total", float64(head.res.TotalBytes))
	r.set("core.max_proxies_per_patch", float64(head.res.MaxProxiesPerPatch))
	r.set("core.msgs_per_host_s", float64(head.res.TotalMsgs)/head.hostS)
	r.set("core.sim_step_s_1024", head.res.AvgStep)
	r.set("core.sim_speedup_1024", one.res.AvgStep/head.res.AvgStep)
	r.set("core.sim_speedup_hier_tree_1024", one.res.AvgStep/scale.res.AvgStep)
	if lb := head.res.LBStats; len(lb) > 0 {
		r.set("core.lb_imbalance_pct_pass0", imbalanceOf(lb[0]))
		r.set("core.lb_imbalance_pct_final", imbalanceOf(lb[len(lb)-1]))
	}
	errSum, rows := 0.0, 0
	for _, n := range pes {
		if paper, ok := paperStepS[r.sz.desSpec().Name][n]; ok {
			errSum += 100 * math.Abs(outs[n].res.AvgStep-paper) / paper
			rows++
			fmt.Printf("  %5d PEs: %.4g s/step simulated, %.4g in the paper\n", n, outs[n].res.AvgStep, paper)
		}
	}
	if rows > 0 {
		r.setN("core.step_err_vs_paper_pct", errSum/float64(rows), rows)
	}

	// converse: a relay ring through the public machine API — one
	// message in flight, every hop one scheduled event.
	m := converse.NewMachine(64, machine.ASCIRed().Net)
	hops := 0
	var relay converse.HandlerID
	relay = m.RegisterHandler("relay", func(c *converse.Ctx, _ any, size int) {
		if hops++; hops < r.sz.ringHops {
			c.Send((c.PE()+1)%c.NumPE(), relay, nil, size, 0)
		}
	})
	m.Inject(0, relay, nil, 64, 0)
	ringS := r.tr.time("converse.Machine.Run", noSpan, func() { m.Run() })
	if hops != r.sz.ringHops {
		r.fail(0, "relay ring delivered %d of %d hops", hops, r.sz.ringHops)
	}
	r.setN("converse.ring_events_per_s", float64(hops)/ringS, hops)

	// ldb: the two strategies the sweep uses, on a seeded problem of the
	// headline size.
	p := ldbProblem(r.seed, r.sz.ldbPEs)
	if err := p.Validate(); err != nil {
		return err
	}
	for _, s := range []struct {
		metric string
		strat  ldb.Strategy
	}{
		{"ldb.greedy_refine_ms_1024", &ldb.GreedyRefine{}},
		{"ldb.hierarchical_ms_1024", &ldb.Hierarchical{}},
	} {
		var assign []int
		ts := make([]float64, 0, r.sz.layerReps)
		for i := 0; i < r.sz.layerReps; i++ {
			ts = append(ts, r.tr.time("ldb."+s.strat.Name()+".Map", noSpan, func() { assign = s.strat.Map(p, 0) }))
		}
		if len(assign) != len(p.Objects) {
			r.fail(0, "ldb %s mapped %d of %d objects", s.strat.Name(), len(assign), len(p.Objects))
		}
		r.setN(s.metric, 1e3*median(ts), len(ts))
	}
	return nil
}

// ldbProblem synthesizes a load-balancing database: npe/2+8 patches
// homed round-robin, 12 objects per PE needing one or two patches,
// started clustered on a quarter of the machine.
func ldbProblem(seed uint64, npe int) *ldb.Problem {
	rng := xrand.New(seed)
	npatch := npe/2 + 8
	p := &ldb.Problem{NumPE: npe, NumPatches: npatch, PatchHome: make([]int, npatch), Background: make([]float64, npe)}
	for t := range p.PatchHome {
		p.PatchHome[t] = t % npe
	}
	for pe := range p.Background {
		p.Background[pe] = rng.Range(0, 1e-4)
	}
	for i := 0; i < 12*npe; i++ {
		o := ldb.Object{
			Load:       rng.Range(1e-4, 5e-3),
			Migratable: rng.Float64() < 0.9,
			PE:         rng.Intn(max(1, npe/4)),
			Patches:    []int{rng.Intn(npatch)},
		}
		if rng.Intn(2) == 1 {
			o.Patches = append(o.Patches, (o.Patches[0]+1+rng.Intn(npatch-1))%npatch)
		}
		p.Objects = append(p.Objects, o)
	}
	return p
}
