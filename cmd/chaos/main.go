// Command chaos demonstrates the fault-injection and recovery layers by
// running the same computation twice — once undisturbed, once under
// injected failures with recovery enabled — and checking that the
// recovered run reproduces the unfailed one exactly.
//
// Two modes:
//
//   - ensemble (default): a replica-exchange run is killed at step k
//     (-crash-at), restarted from its last periodic checkpoint, and run
//     to completion; final positions, velocities, and the full exchange
//     history must be bit-identical to a run that never failed.
//
//   - machine: a cluster simulation runs under a seeded fault plan
//     (message drops/duplicates/delays and a PE crash) with reliable
//     delivery and checkpoint rollback; with a crash-only plan the
//     measured step durations must match the fault-free run to float
//     rounding (message faults perturb timing, so those runs only
//     check completion and protocol health).
//
// Usage:
//
//	chaos -crash-at 120 -steps 200
//	chaos -mode machine -pes 8
//	chaos -mode machine -pes 8 -drop 0.05 -dup 0.02
package main

import (
	"flag"
	"fmt"
	"log"
	"math"
	"os"
	"path/filepath"
	"reflect"

	"gonamd"
	"gonamd/internal/vec"
)

func main() {
	log.SetFlags(0)
	mode := flag.String("mode", "ensemble", "ensemble or machine")
	seed := flag.Uint64("seed", 1, "system, ensemble, and fault-plan seed")

	// Ensemble mode.
	crashAt := flag.Int64("crash-at", 120, "ensemble: kill the run at this MD step")
	steps := flag.Int("steps", 200, "ensemble: total MD steps")
	replicas := flag.Int("replicas", 3, "ensemble: ladder rungs")
	side := flag.Float64("side", 12, "ensemble: water box side, Å")
	exchange := flag.Int("exchange", 50, "ensemble: steps between exchange attempts")
	ckptEvery := flag.Int("ckpt-every", 40, "ensemble: checkpoint every N steps")

	// Machine mode.
	pes := flag.Int("pes", 8, "machine: simulated processors")
	drop := flag.Float64("drop", 0, "machine: message drop probability")
	dup := flag.Float64("dup", 0, "machine: message duplication probability")
	delay := flag.Float64("delay", 0, "machine: message delay probability")
	lb := flag.String("lb", "", "machine: load-balancing strategy: greedy+refine (default), refine-only, hierarchical, diffusion, none")

	profile := flag.Bool("profile", false, "print a projections summary of the faulty run's trace")
	flag.Parse()

	// Resolve the strategy name before any work so a typo fails
	// immediately with the list of valid names.
	var lbStrat gonamd.LBStrategy
	if *lb != "" {
		if *mode != "machine" {
			log.Fatalf("-lb %s applies only to -mode machine", *lb)
		}
		var err error
		if lbStrat, err = gonamd.LookupLBStrategy(*lb); err != nil {
			log.Fatal(err)
		}
	}

	ok := false
	switch *mode {
	case "ensemble":
		ok = runEnsemble(*seed, *crashAt, *steps, *replicas, *side, *exchange, *ckptEvery, *profile)
	case "machine":
		ok = runMachine(*seed, *pes, *drop, *dup, *delay, lbStrat, *profile)
	default:
		log.Fatalf("unknown mode %q (want ensemble or machine)", *mode)
	}
	if !ok {
		fmt.Println("FAIL")
		os.Exit(1)
	}
	fmt.Println("PASS")
}

// runEnsemble kills a replica-exchange run at crashAt, resumes it from
// its last checkpoint, and compares the final snapshot bit-for-bit
// against an unfailed reference run.
func runEnsemble(seed uint64, crashAt int64, steps, replicas int, side float64, exchange, ckptEvery int, profile bool) bool {
	if crashAt <= int64(ckptEvery) || crashAt >= int64(steps) {
		log.Fatalf("-crash-at %d must lie in (%d, %d): the first checkpoint must exist before the crash",
			crashAt, ckptEvery, steps)
	}
	sys, st, err := gonamd.BuildSystem(gonamd.WaterBoxSpec(side, seed))
	if err != nil {
		log.Fatal(err)
	}
	ff := gonamd.StandardForceField(5.0)
	fmt.Printf("system: %s, %d atoms; %d replicas, %d steps, exchange every %d\n",
		sys.Name, sys.N(), replicas, steps, exchange)

	dir, err := os.MkdirTemp("", "gonamd-chaos")
	if err != nil {
		log.Fatal(err)
	}
	defer os.RemoveAll(dir)
	ckptPath := filepath.Join(dir, "ens.ckpt")

	base := gonamd.EnsembleConfig{
		Temperatures:  gonamd.GeometricLadder(300, 360, replicas),
		ExchangeEvery: exchange,
		Seed:          seed,
	}

	// Reference: never fails, no checkpointing.
	ref, err := gonamd.NewEnsemble(sys, ff, st, base)
	if err != nil {
		log.Fatal(err)
	}
	defer ref.Close()
	if err := ref.Run(steps); err != nil {
		log.Fatal(err)
	}
	want := ref.Snapshot()

	// Chaos: checkpoint periodically and die at crashAt.
	cfg := base
	cfg.CheckpointEvery = ckptEvery
	cfg.CheckpointPath = ckptPath
	cfg.FailAt = crashAt
	victim, err := gonamd.NewEnsemble(sys, ff, st, cfg)
	if err != nil {
		log.Fatal(err)
	}
	defer victim.Close()
	if err := victim.Run(steps); err != gonamd.ErrInjectedFailure {
		log.Fatalf("victim run: got %v, want injected failure at step %d", err, crashAt)
	}
	fmt.Printf("killed at step %d (work since the step-%d checkpoint lost)\n",
		victim.Step(), int64(ckptEvery)*((crashAt-1)/int64(ckptEvery)))

	// Recovery: a fresh process resumes from the checkpoint file.
	cfg.FailAt = 0
	if profile {
		cfg.Trace = gonamd.NewTraceLog()
	}
	recovered, err := gonamd.NewEnsemble(sys, ff, st, cfg)
	if err != nil {
		log.Fatal(err)
	}
	defer recovered.Close()
	f, err := os.Open(ckptPath)
	if err != nil {
		log.Fatal(err)
	}
	err = recovered.Resume(f)
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("resumed from %s at step %d\n", ckptPath, recovered.Step())
	if err := recovered.Run(steps - int(recovered.Step())); err != nil {
		log.Fatal(err)
	}

	got := recovered.Snapshot()
	if !reflect.DeepEqual(want, got) {
		fmt.Println("recovered run diverged from the unfailed reference:")
		for i := range want.Replicas {
			if !reflect.DeepEqual(want.Replicas[i], got.Replicas[i]) {
				fmt.Printf("  replica %d state differs\n", i)
			}
		}
		if !reflect.DeepEqual(want.Attempts, got.Attempts) || !reflect.DeepEqual(want.Accepts, got.Accepts) {
			fmt.Printf("  exchange history differs: %v/%v vs %v/%v\n",
				want.Accepts, want.Attempts, got.Accepts, got.Attempts)
		}
		return false
	}
	att, acc := recovered.ExchangeCounts()
	fmt.Printf("final state bit-identical to unfailed run (exchanges %v of %v accepted)\n", acc, att)
	if profile && cfg.Trace != nil {
		fmt.Println()
		gonamd.AnalyzeTrace(cfg.Trace, gonamd.ProjectionsOptions{PEs: replicas}).WriteText(os.Stdout)
	}
	return true
}

// runMachine runs a cluster simulation under a fault plan with reliable
// delivery and checkpoint rollback, against a fault-free reference.
func runMachine(seed uint64, pes int, drop, dup, delay float64, lb gonamd.LBStrategy, profile bool) bool {
	sys, st, err := gonamd.BuildSystem(gonamd.Spec{
		Name: "chaos", Box: vec.New(39, 39, 39), TargetAtoms: 3000,
		ProteinChains: 1, ChainResidues: 25, LipidCount: 4, LipidTailLen: 8,
		Seed: seed,
	})
	if err != nil {
		log.Fatal(err)
	}
	grid, err := gonamd.NewGrid(sys, 12.0)
	if err != nil {
		log.Fatal(err)
	}
	w, err := gonamd.BuildWorkload("chaos", sys, st, grid, 12.0, 13.5)
	if err != nil {
		log.Fatal(err)
	}
	model := gonamd.CalibrateMachine("chaos-ascired", 1.0, gonamd.ASCIRed().Net, w.Counts())
	cfg := gonamd.ClusterConfig{PEs: pes, Model: model, SplitSelf: true, CollectTrace: profile, LB: lb}
	if lb != nil {
		fmt.Printf("load balancer: %s\n", lb.Name())
	}

	// Fault-free reference with the identical recovery machinery (the
	// reliable protocol's acks cost time, so only a like-for-like run
	// can be bit-compared).
	sim, err := gonamd.NewClusterSim(w, gonamd.WithFaultPlan(cfg, nil))
	if err != nil {
		log.Fatal(err)
	}
	ref := sim.Run()
	fmt.Printf("fault-free: %d PEs, avg step %.4fs\n", ref.PEs, ref.AvgStep)

	// Crash one PE ~30% of the way to the measured window; it restarts
	// after 5% of that span.
	plan := &gonamd.FaultPlan{
		Seed: seed, DropProb: drop, DupProb: dup,
		DelayProb: delay, DelayMax: 4 * cfg.Model.Net.Latency,
		Crashes: []gonamd.PECrash{{PE: 1, At: 0.3 * ref.MeasureT0, Down: 0.05 * ref.MeasureT0}},
	}
	sim2, err := gonamd.NewClusterSim(w, gonamd.WithFaultPlan(cfg, plan))
	if err != nil {
		log.Fatal(err)
	}
	res := sim2.Run()
	fmt.Printf("faulty: crashes=%d restarts=%d lost=%d dropped=%d duplicated=%d delayed=%d\n",
		res.FaultStats.Crashes, res.FaultStats.Restarts, res.FaultStats.Lost,
		res.FaultStats.Dropped, res.FaultStats.Duplicated, res.FaultStats.Delayed)
	fmt.Printf("reliable: sends=%d acks=%d retries=%d dups-suppressed=%d giveups=%d; rollbacks=%d\n",
		res.Reliable.Sends, res.Reliable.Acks, res.Reliable.Retries,
		res.Reliable.Duplicates, res.Reliable.GiveUps, res.Recoveries)

	if res.Recoveries == 0 {
		fmt.Println("expected at least one checkpoint rollback")
		return false
	}
	if drop == 0 && dup == 0 && delay == 0 {
		// Crash-only plans must leave the measured steps untouched. The
		// recovered run replays the identical charge sequence from a
		// crash-shifted absolute virtual time, so durations agree only
		// to float rounding (~1e-12 relative), not bit-for-bit.
		const tol = 1e-9
		if len(ref.StepDurations) != len(res.StepDurations) {
			fmt.Printf("measured %d steps fault-free, %d recovered\n",
				len(ref.StepDurations), len(res.StepDurations))
			return false
		}
		for i, d := range ref.StepDurations {
			if diff := math.Abs(res.StepDurations[i] - d); diff > tol*math.Abs(d) {
				fmt.Printf("step %d duration diverged: fault-free %.15g, recovered %.15g\n",
					i, d, res.StepDurations[i])
				return false
			}
		}
		fmt.Printf("measured step durations identical to fault-free run within %g relative (avg %.4fs)\n",
			tol, res.AvgStep)
	} else {
		if res.Reliable.GiveUps > 0 {
			fmt.Println("reliable layer abandoned sends")
			return false
		}
		fmt.Println("run completed under message faults with no abandoned sends")
	}
	if profile && res.Trace != nil {
		fmt.Println()
		gonamd.AnalyzeTrace(res.Trace, gonamd.ProjectionsOptions{PEs: pes}).WriteText(os.Stdout)
		fmt.Println()
		fmt.Print(gonamd.LBReport(res.LBStats))
	}
	return true
}
