// Command chaos demonstrates the fault-injection and recovery layers by
// running the same computation twice — once undisturbed, once under
// injected failures with recovery enabled — and checking that the
// recovered run reproduces the unfailed one exactly.
//
// Two modes:
//
//   - ensemble (default): a replica-exchange run, checkpointed to a
//     file every -ckpt-every steps, is abandoned at step k (-crash-at);
//     a fresh ensemble restored from the last checkpoint runs to
//     completion, and its final positions, velocities, and full exchange
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
	"errors"
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

var (
	mode = flag.String("mode", "ensemble", "ensemble or machine")
	seed = flag.Uint64("seed", 1, "system, ensemble, and fault-plan seed")

	// Ensemble mode.
	crashAt   = flag.Int64("crash-at", 120, "ensemble: kill the run at this MD step")
	steps     = flag.Int("steps", 200, "ensemble: total MD steps")
	replicas  = flag.Int("replicas", 3, "ensemble: ladder rungs")
	side      = flag.Float64("side", 12, "ensemble: water box side, Å")
	exchange  = flag.Int("exchange", 50, "ensemble: steps between exchange attempts")
	ckptEvery = flag.Int("ckpt-every", 40, "ensemble: checkpoint every N steps")

	// Machine mode.
	pes   = flag.Int("pes", 8, "machine: simulated processors")
	drop  = flag.Float64("drop", 0, "machine: message drop probability")
	dup   = flag.Float64("dup", 0, "machine: message duplication probability")
	delay = flag.Float64("delay", 0, "machine: message delay probability")
	lb    = flag.String("lb", "", "machine: load-balancing strategy: greedy+refine (default), refine-only, hierarchical, diffusion, none")

	profile = flag.Bool("profile", false, "print a projections summary of the faulty run's trace")
)

func main() {
	log.SetFlags(0)
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

	var err error
	switch *mode {
	case "ensemble":
		err = runEnsemble(*seed, *crashAt, *steps, *replicas, *side, *exchange, *ckptEvery, *profile)
	case "machine":
		err = runMachine(*seed, *pes, *drop, *dup, *delay, lbStrat, *profile)
	default:
		log.Fatalf("unknown mode %q (want ensemble or machine)", *mode)
	}
	if err != nil {
		fmt.Println(err)
		fmt.Println("FAIL")
		os.Exit(1)
	}
	fmt.Println("PASS")
}

// runEnsemble runs a replica-exchange ensemble in blocks, saving a
// checkpoint file after every ckptEvery steps, and abandons it at
// crashAt — everything since the last checkpoint is lost, as in a crash.
// A fresh ensemble restored from that file runs to completion, and its
// final snapshot must equal an unfailed reference run's bit for bit.
func runEnsemble(seed uint64, crashAt int64, steps, replicas int, side float64, exchange, ckptEvery int, profile bool) error {
	if ckptEvery <= 0 || crashAt <= int64(ckptEvery) || crashAt >= int64(steps) {
		return fmt.Errorf("-crash-at %d must lie in (%d, %d) and -ckpt-every be positive: the first checkpoint must exist before the crash",
			crashAt, ckptEvery, steps)
	}
	sys, st, err := gonamd.BuildSystem(gonamd.WaterBoxSpec(side, seed))
	if err != nil {
		return err
	}
	ff := gonamd.StandardForceField(5.0)
	fmt.Printf("system: %s, %d atoms; %d replicas, %d steps, exchange every %d\n",
		sys.Name, sys.N(), replicas, steps, exchange)

	dir, err := os.MkdirTemp("", "gonamd-chaos")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	ckptPath := filepath.Join(dir, "ens.ckpt")

	cfg := gonamd.EnsembleConfig{
		Temperatures:  gonamd.GeometricLadder(300, 360, replicas),
		ExchangeEvery: exchange,
		Seed:          seed,
	}

	// Reference: never fails, no checkpointing.
	ref, err := gonamd.NewEnsemble(sys, ff, st, cfg)
	if err != nil {
		return err
	}
	defer ref.Close()
	if err := ref.Run(steps); err != nil {
		return err
	}
	want := ref.Snapshot()

	// Victim: checkpoint at every multiple of ckptEvery, die at crashAt.
	victim, err := gonamd.NewEnsemble(sys, ff, st, cfg)
	if err != nil {
		return err
	}
	defer victim.Close()
	for {
		next := min(crashAt, (victim.Step()/int64(ckptEvery)+1)*int64(ckptEvery))
		if err := victim.Run(int(next - victim.Step())); err != nil {
			return err
		}
		if next == crashAt {
			break // the crash comes before a checkpoint due at this step
		}
		if err := gonamd.SaveCheckpointFile(ckptPath, victim.Snapshot()); err != nil {
			return err
		}
	}
	fmt.Printf("killed at step %d (work since the step-%d checkpoint lost)\n",
		victim.Step(), int64(ckptEvery)*((crashAt-1)/int64(ckptEvery)))

	// Recovery: a fresh ensemble restored from the checkpoint file.
	if profile {
		cfg.Trace = gonamd.NewTraceLog()
	}
	recovered, err := gonamd.NewEnsemble(sys, ff, st, cfg)
	if err != nil {
		return err
	}
	defer recovered.Close()
	snap, err := gonamd.LoadCheckpointFile(ckptPath)
	if err != nil {
		return err
	}
	if err := recovered.Restore(snap); err != nil {
		return err
	}
	fmt.Printf("resumed from %s at step %d\n", ckptPath, recovered.Step())
	if err := recovered.Run(steps - int(recovered.Step())); err != nil {
		return err
	}

	if got := recovered.Snapshot(); !reflect.DeepEqual(want, got) {
		for i := range want.Replicas {
			if !reflect.DeepEqual(want.Replicas[i], got.Replicas[i]) {
				return fmt.Errorf("recovered run diverged from the unfailed reference: replica %d state differs", i)
			}
		}
		return fmt.Errorf("recovered run diverged from the unfailed reference: exchanges %v/%v accepted, want %v/%v",
			got.Accepts, got.Attempts, want.Accepts, want.Attempts)
	}
	att, acc := recovered.ExchangeCounts()
	fmt.Printf("final state bit-identical to unfailed run (exchanges %v of %v accepted)\n", acc, att)
	if profile {
		fmt.Println()
		gonamd.AnalyzeTrace(cfg.Trace, gonamd.ProjectionsOptions{PEs: replicas}).WriteText(os.Stdout)
	}
	return nil
}

// runMachine runs a cluster simulation under a fault plan with reliable
// delivery and checkpoint rollback, against a fault-free reference.
func runMachine(seed uint64, pes int, drop, dup, delay float64, lb gonamd.LBStrategy, profile bool) error {
	sys, st, err := gonamd.BuildSystem(gonamd.Spec{
		Name: "chaos", Box: vec.New(39, 39, 39), TargetAtoms: 3000,
		ProteinChains: 1, ChainResidues: 25, LipidCount: 4, LipidTailLen: 8,
		Seed: seed,
	})
	if err != nil {
		return err
	}
	grid, err := gonamd.NewGrid(sys, 12.0)
	if err != nil {
		return err
	}
	w, err := gonamd.BuildWorkload("chaos", sys, st, grid, 12.0, 13.5)
	if err != nil {
		return err
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
		return err
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
		return err
	}
	res := sim2.Run()
	fmt.Printf("faulty: crashes=%d restarts=%d lost=%d dropped=%d duplicated=%d delayed=%d\n",
		res.FaultStats.Crashes, res.FaultStats.Restarts, res.FaultStats.Lost,
		res.FaultStats.Dropped, res.FaultStats.Duplicated, res.FaultStats.Delayed)
	fmt.Printf("reliable: sends=%d acks=%d retries=%d dups-suppressed=%d giveups=%d; rollbacks=%d\n",
		res.Reliable.Sends, res.Reliable.Acks, res.Reliable.Retries,
		res.Reliable.Duplicates, res.Reliable.GiveUps, res.Recoveries)

	if res.Recoveries == 0 {
		return errors.New("expected at least one checkpoint rollback")
	}
	if drop == 0 && dup == 0 && delay == 0 {
		// Crash-only plans must leave the measured steps untouched. The
		// recovered run replays the identical charge sequence from a
		// crash-shifted absolute virtual time, so durations agree only
		// to float rounding (~1e-12 relative), not bit-for-bit.
		const tol = 1e-9
		if len(ref.StepDurations) != len(res.StepDurations) {
			return fmt.Errorf("measured %d steps fault-free, %d recovered",
				len(ref.StepDurations), len(res.StepDurations))
		}
		for i, d := range ref.StepDurations {
			if diff := math.Abs(res.StepDurations[i] - d); diff > tol*math.Abs(d) {
				return fmt.Errorf("step %d duration diverged: fault-free %.15g, recovered %.15g",
					i, d, res.StepDurations[i])
			}
		}
		fmt.Printf("measured step durations identical to fault-free run within %g relative (avg %.4fs)\n",
			tol, res.AvgStep)
	} else {
		if res.Reliable.GiveUps > 0 {
			return errors.New("reliable layer abandoned sends")
		}
		fmt.Println("run completed under message faults with no abandoned sends")
	}
	if profile && res.Trace != nil {
		fmt.Println()
		gonamd.AnalyzeTrace(res.Trace, gonamd.ProjectionsOptions{PEs: pes}).WriteText(os.Stdout)
		fmt.Println()
		fmt.Print(gonamd.LBReport(res.LBStats))
	}
	return nil
}
