// Command ensemble runs replica-exchange molecular dynamics: N replicas
// of a synthetic system on a geometric temperature ladder, advanced
// concurrently with periodic Metropolis exchanges, with atomic
// checkpointing and exact restart.
//
// Usage:
//
//	ensemble -system water -side 14 -replicas 4 -tmin 300 -tmax 400 -steps 1000
//	ensemble -system br -replicas 8 -steps 5000 -ckpt br.ckpt -ckptevery 500
//	ensemble -system br -replicas 8 -steps 5000 -ckpt br.ckpt -resume
package main

import (
	"context"
	"flag"
	"fmt"
	"log"
	"os"
	"os/signal"
	"syscall"
	"time"

	"gonamd"
	"gonamd/internal/engine"
	"gonamd/internal/ftdc"
	"gonamd/internal/molgen"
	"gonamd/internal/sysio"
)

// ensembleMetricsSchema is the telemetry layout for a replica-exchange
// run: ladder-wide step counters plus exchange statistics, sampled by a
// generic (non-engine) FTDC recorder.
func ensembleMetricsSchema() ftdc.Schema {
	return ftdc.Schema{
		Version: ftdc.SchemaVersion,
		Fields: []ftdc.Field{
			{Name: "steps", Kind: ftdc.Counter},
			{Name: "steps_per_sec", Kind: ftdc.Gauge},
			{Name: "replica_steps", Kind: ftdc.Counter},
			{Name: "exchanges_attempted", Kind: ftdc.Counter},
			{Name: "exchanges_accepted", Kind: ftdc.Counter},
		},
	}
}

// Field indices of ensembleMetricsSchema.
const (
	emSteps = iota
	emStepsPerSec
	emReplicaSteps
	emExchAttempted
	emExchAccepted
)

func main() {
	log.SetFlags(0)
	system := flag.String("system", "water", "system: water, br, apoa1, bc1")
	inFile := flag.String("in", "", "load a system saved by molgen -o instead of building one")
	side := flag.Float64("side", 14, "water box side length, Å")
	seed := flag.Uint64("seed", 1, "builder and ensemble seed")
	replicas := flag.Int("replicas", 4, "number of replicas (ladder rungs)")
	tmin := flag.Float64("tmin", 300, "coldest rung, K")
	tmax := flag.Float64("tmax", 400, "hottest rung, K")
	steps := flag.Int("steps", 1000, "MD steps to advance every replica")
	dt := flag.Float64("dt", 0.5, "timestep, fs")
	gamma := flag.Float64("gamma", 0.005, "Langevin friction, 1/fs")
	exchange := flag.Int("exchange", 100, "steps between exchange attempts (0 = 100; negative is refused)")
	workers := flag.Int("workers", 0, "concurrent replicas (0 = all cores)")
	engineWorkers := flag.Int("engineworkers", 0, "workers per replica engine (0 = auto, 1 = one inline worker)")
	minimize := flag.Int("minimize", 200, "minimization iterations before dynamics")
	cutoff := flag.Float64("cutoff", 9.0, "nonbonded cutoff, Å")
	every := flag.Int("every", 0, "print a status line every N steps (0 = each exchange interval)")
	ckptPath := flag.String("ckpt", "", "checkpoint file (written atomically)")
	ckptEvery := flag.Int("ckptevery", 0, "checkpoint every N steps (0 = only at end)")
	resume := flag.Bool("resume", false, "resume from -ckpt before running")
	tracePath := flag.String("trace", "", "write the Projections-style event log (JSON lines) here")
	profile := flag.Bool("profile", false, "print a projections summary of the ensemble trace at exit")
	metricsPath := flag.String("metrics", "", "write FTDC telemetry samples to this file (analyze with projections -ftdc)")
	metricsEvery := flag.Duration("metricsevery", time.Second, "telemetry sampling interval; 0 samples only at exit (requires -metrics)")
	flag.Parse()
	if *metricsEvery < 0 {
		log.Fatalf("-metricsevery %v must be ≥ 0 (0 = one sample at exit)", *metricsEvery)
	}

	var sys *gonamd.System
	var st *gonamd.State
	if *inFile != "" {
		f, err := os.Open(*inFile)
		if err != nil {
			log.Fatal(err)
		}
		sys, st, err = sysio.Load(f)
		if cerr := f.Close(); err == nil {
			err = cerr
		}
		if err != nil {
			log.Fatal(err)
		}
	} else {
		spec, err := molgen.Preset(*system, *side, *seed)
		if err == nil {
			sys, st, err = gonamd.BuildSystem(spec)
		}
		if err != nil {
			log.Fatal(err)
		}
	}
	ff := gonamd.StandardForceField(*cutoff)
	fmt.Printf("%s: %d atoms, %d bonded terms, box %v\n", sys.Name, sys.N(), sys.NumBondedTerms(), sys.Box)

	if *minimize > 0 {
		// One inline worker on the production cluster lists.
		m, err := gonamd.NewSequential(sys, ff, st,
			gonamd.WithClusterLists(engine.DefaultClusterM, engine.DefaultClusterN))
		if err != nil {
			log.Fatal(err)
		}
		e0 := m.Energies().Potential()
		e1 := m.Minimize(*minimize, 0.2)
		fmt.Printf("minimized %d iterations: %.1f -> %.1f kcal/mol\n", *minimize, e0, e1)
	}

	ladder := gonamd.GeometricLadder(*tmin, *tmax, *replicas)
	tlog := gonamd.NewTraceLog()
	cfg := gonamd.EnsembleConfig{
		Temperatures:    ladder,
		Dt:              *dt,
		Gamma:           *gamma,
		ExchangeEvery:   *exchange,
		Seed:            *seed,
		Workers:         *workers,
		EngineWorkers:   *engineWorkers,
		CheckpointEvery: *ckptEvery,
		CheckpointPath:  *ckptPath,
		Trace:           tlog,
	}
	if *ckptEvery > 0 && *ckptPath == "" {
		log.Fatal("-ckptevery requires -ckpt")
	}
	ens, err := gonamd.NewEnsemble(sys, ff, st, cfg)
	if err != nil {
		log.Fatal(err)
	}
	defer ens.Close()
	fmt.Printf("ensemble: %d replicas, ladder %.1f..%.1f K, exchange every %d steps\n",
		*replicas, ladder[0], ladder[len(ladder)-1], *exchange)

	if *resume {
		if *ckptPath == "" {
			log.Fatal("-resume requires -ckpt")
		}
		snap, err := gonamd.LoadCheckpointFile(*ckptPath)
		if err != nil {
			log.Fatal(err)
		}
		if err := ens.Restore(snap); err != nil {
			log.Fatal(err)
		}
		fmt.Printf("resumed from %s at step %d\n", *ckptPath, ens.Step())
	}

	var mrec *ftdc.Recorder
	var mfw *ftdc.FileWriter
	if *metricsPath != "" {
		fw, err := ftdc.CreateFile(*metricsPath, ensembleMetricsSchema())
		if err != nil {
			log.Fatal(err)
		}
		mfw = fw
		mrec = ftdc.NewRecorder(ftdc.Options{
			Schema:      ensembleMetricsSchema(),
			Interval:    *metricsEvery,
			StepField:   emSteps,
			RateField:   emStepsPerSec,
			RuntimeBase: -1,
		})
		mrec.SetSink(fw)
	}
	// publishMetrics refreshes the recorder slots from the ensemble's
	// counters; the sampler (ticker or final Close) snapshots them.
	publishMetrics := func() {
		if mrec == nil {
			return
		}
		mrec.StoreInt(emSteps, ens.Step())
		mrec.StoreInt(emReplicaSteps, ens.Step()*int64(ens.NumReplicas()))
		att, acc := ens.ExchangeCounts()
		var ta, tc int64
		for i := range att {
			ta += att[i]
			tc += acc[i]
		}
		mrec.StoreInt(emExchAttempted, ta)
		mrec.StoreInt(emExchAccepted, tc)
	}

	block := *every
	if block <= 0 {
		block = *exchange
	}
	if block <= 0 {
		block = *steps
	}
	// On SIGINT/SIGTERM the block loop exits at the next block boundary;
	// the final-checkpoint path below then records the partial run, so an
	// interrupted ensemble resumes with -resume instead of starting over.
	ctx, stopSignals := signal.NotifyContext(context.Background(), syscall.SIGINT, syscall.SIGTERM)
	defer stopSignals()
	start := time.Now()
	for done := 0; done < *steps; {
		if ctx.Err() != nil {
			fmt.Printf("interrupted at step %d; writing final checkpoint\n", ens.Step())
			break
		}
		n := block
		if *steps-done < n {
			n = *steps - done
		}
		if err := ens.Run(n); err != nil {
			log.Fatal(err)
		}
		done += n
		publishMetrics()
		fmt.Printf("step %6d ", ens.Step())
		for i := 0; i < ens.NumReplicas(); i++ {
			fmt.Printf(" U%d=%8.1f", i, ens.Replica(i).Potential())
		}
		fmt.Println(" kcal/mol")
	}
	el := time.Since(start)

	att, acc := ens.ExchangeCounts()
	rates := ens.AcceptanceRates()
	fmt.Println("exchange acceptance per neighbor pair:")
	for i, r := range rates {
		fmt.Printf("  %5.1fK <-> %5.1fK: %3d/%3d = %.2f\n",
			ladder[i], ladder[i+1], acc[i], att[i], r)
	}
	fmt.Printf("%d steps x %d replicas in %v (%.1f replica-steps/s)\n",
		*steps, *replicas, el.Round(time.Millisecond),
		float64(*steps**replicas)/el.Seconds())

	if mrec != nil {
		publishMetrics()
		err := mrec.Close()
		if cerr := mfw.Close(); err == nil {
			err = cerr
		}
		if err != nil {
			log.Fatalf("writing telemetry %s: %v", *metricsPath, err)
		}
		fmt.Printf("telemetry: %s (%d samples; analyze with projections -ftdc)\n",
			*metricsPath, mrec.SampleCount())
	}
	if *ckptPath != "" {
		if err := gonamd.SaveCheckpointFile(*ckptPath, ens.Snapshot()); err != nil {
			log.Fatal(err)
		}
		fmt.Printf("final checkpoint: %s (step %d)\n", *ckptPath, ens.Step())
	}
	if *tracePath != "" {
		f, err := os.Create(*tracePath)
		if err != nil {
			log.Fatal(err)
		}
		err = tlog.WriteJSON(f)
		if cerr := f.Close(); err == nil {
			err = cerr
		}
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("trace: %s (%d records)\n", *tracePath, len(tlog.Records))
	}
	if *profile {
		fmt.Println()
		gonamd.AnalyzeTrace(tlog, gonamd.ProjectionsOptions{PEs: *replicas}).WriteText(os.Stdout)
	}
}
