// Command mdrun runs real molecular dynamics on a synthetic system, on
// one inline worker or a pool of them, printing an energy log.
//
// Usage:
//
//	mdrun -system water -side 24 -steps 100 -dt 0.5 -workers 0
//	mdrun -system br -steps 50 -minimize 300
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"log"
	"os"
	"os/signal"
	"runtime"
	"runtime/pprof"
	"syscall"
	"time"

	"gonamd"
	"gonamd/internal/ckpt"
	"gonamd/internal/molgen"
	"gonamd/internal/sysio"
	"gonamd/internal/thermo"
	"gonamd/internal/traj"
)

func main() {
	log.SetFlags(0)
	system := flag.String("system", "water", "system: water, br, apoa1, bc1")
	inFile := flag.String("in", "", "load a system saved by molgen -o instead of building one")
	side := flag.Float64("side", 24, "water box side length, Å")
	seed := flag.Uint64("seed", 1, "builder seed")
	steps := flag.Int("steps", 100, "MD steps")
	dt := flag.Float64("dt", 0.5, "timestep, fs")
	workers := flag.Int("workers", 0, "engine workers (0 = all cores; 1 runs inline, without goroutines)")
	lb := flag.String("lb", "", "parallel load-balancing strategy: greedy+refine (default), refine-only, hierarchical, diffusion, none")
	minimize := flag.Int("minimize", 200, "minimization iterations before dynamics")
	cutoff := flag.Float64("cutoff", 9.0, "nonbonded cutoff, Å")
	every := flag.Int("every", 10, "print energies every N steps")
	thermostat := flag.String("thermostat", "", "NVT thermostat: rescale, berendsen, langevin (default NVE)")
	targetT := flag.Float64("temperature", 300, "thermostat target temperature, K")
	trajPath := flag.String("traj", "", "write a binary trajectory to this file")
	ckptPath := flag.String("ckpt", "", "write a final sysio snapshot here (reload with -in); also written on SIGINT/SIGTERM")
	trajEvery := flag.Int("trajevery", 10, "write a trajectory frame every N steps")
	shake := flag.Bool("shake", false, "constrain bonds to hydrogen (allows -dt 2)")
	cluster := flag.String("cluster", "4x8", "M×N geometry of the cluster pair lists, e.g. 4x4 or 4x8")
	pme := flag.Bool("pme", false, "full electrostatics: smooth particle-mesh Ewald")
	grid := flag.Float64("grid", 1.0, "PME mesh spacing, Å (mesh dims round up to powers of two)")
	ewaldBeta := flag.Float64("ewald-beta", 0, "Ewald splitting parameter, 1/Å (0 = auto from cutoff)")
	mts := flag.Int("mts", 4, "PME impulse-MTS period: reciprocal sum every N steps")
	cpuprofile := flag.String("cpuprofile", "", "write a pprof CPU profile of the dynamics loop to this file")
	memprofile := flag.String("memprofile", "", "write a pprof heap profile at exit to this file")
	profile := flag.Bool("profile", false, "print a projections summary of the run's phase trace at exit")
	tracePath := flag.String("trace", "", "write the phase trace as JSON Lines to this file (analyze with cmd/projections)")
	metricsPath := flag.String("metrics", "", "write FTDC telemetry samples to this file (analyze with projections -ftdc)")
	metricsEvery := flag.Duration("metricsevery", time.Second, "telemetry sampling interval; 0 samples only at exit (requires -metrics)")
	flag.Parse()

	if *workers < 0 {
		log.Fatalf("-workers %d must be ≥ 0 (0 = all cores)", *workers)
	}
	if *metricsEvery < 0 {
		log.Fatalf("-metricsevery %v must be ≥ 0 (0 = one sample at exit)", *metricsEvery)
	}
	if *metricsEvery != time.Second && *metricsPath == "" {
		log.Fatalf("-metricsevery %v has no effect without -metrics", *metricsEvery)
	}
	if *lb != "" {
		// Resolve the name before any expensive setup so a typo fails
		// immediately with the list of valid strategies.
		if _, err := gonamd.LookupLBStrategy(*lb); err != nil {
			log.Fatal(err)
		}
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

	var clM, clN int
	if _, err := fmt.Sscanf(*cluster, "%dx%d", &clM, &clN); err != nil {
		log.Fatalf("bad -cluster %q: want MxN, e.g. 4x8", *cluster)
	}
	if *minimize > 0 {
		// The minimizer runs the run's own pipeline — one inline worker on
		// its cluster lists — under the shifted cutoff.
		m, err := gonamd.NewParallel(sys, ff, st, 1, gonamd.WithClusterLists(clM, clN))
		if err != nil {
			log.Fatal(err)
		}
		e0 := m.Energies().Potential()
		e1 := m.Minimize(*minimize, 0.2)
		fmt.Printf("minimized %d iterations: %.1f -> %.1f kcal/mol\n", *minimize, e0, e1)
	}

	var th thermo.Thermostat
	switch *thermostat {
	case "":
	case "rescale":
		th = &thermo.Rescale{Target: *targetT, Interval: 10}
	case "berendsen":
		th = &thermo.Berendsen{Target: *targetT, Tau: 100}
	case "langevin":
		th = &thermo.Langevin{Target: *targetT, Gamma: 0.005, Seed: *seed}
	default:
		log.Fatalf("unknown thermostat %q", *thermostat)
	}
	if th != nil {
		fmt.Printf("thermostat: %s at %.0f K\n", th.Name(), *targetT)
	}

	// Option validation — cluster geometry, grid/MTS ranges and the
	// -shake/-pme exclusion — lives in the options layer; construction
	// errors carry the explanation.
	var tlog *gonamd.TraceLog
	if *profile || *tracePath != "" {
		tlog = gonamd.NewTraceLog()
	}
	var opts []gonamd.Option
	if th != nil {
		opts = append(opts, gonamd.WithThermostat(th))
	}
	if *pme {
		opts = append(opts, gonamd.WithPME(*grid, *ewaldBeta, *mts))
	}
	opts = append(opts, gonamd.WithClusterLists(clM, clN))
	if tlog != nil {
		opts = append(opts, gonamd.WithTrace(tlog))
	}
	var mrec *gonamd.MetricsRecorder
	var mfw *gonamd.MetricsFileWriter
	if *metricsPath != "" {
		fw, err := gonamd.CreateMetricsFile(*metricsPath, gonamd.EngineMetricsSchema())
		if err != nil {
			log.Fatal(err)
		}
		mfw = fw
		mrec = gonamd.NewMetricsRecorder(*metricsEvery)
		mrec.SetSink(mfw)
		opts = append(opts, gonamd.WithMetricsRecorder(mrec))
	}

	if *shake {
		opts = append(opts, gonamd.WithHBondConstraints())
	}
	if *lb != "" {
		opts = append(opts, gonamd.WithLoadBalancer(*lb))
	}
	eng, err := gonamd.NewParallel(sys, ff, st, *workers, opts...)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("engine: %d workers, %d tasks\n", eng.Workers(), eng.NumTasks())
	if c := eng.Constraints(); c != nil {
		fmt.Printf("SHAKE/RATTLE: %d constrained bonds\n", c.Count())
	}
	if *lb != "" {
		fmt.Printf("load balancer: %s\n", *lb)
	}
	kernel := "analytic"
	if *pme {
		kernel = "tabulated Ewald"
	}
	fmt.Printf("cluster lists: %dx%d, %s kernel\n", clM, clN, kernel)
	if *pme {
		beta := *ewaldBeta
		if beta == 0 {
			beta = 3.12 / *cutoff
		}
		fmt.Printf("pme: grid spacing %.2f Å, ewald beta %.3f 1/Å, MTS period %d\n", *grid, beta, *mts)
	}

	var tw *traj.Writer
	var trajFile *os.File
	if *trajPath != "" {
		f, err := os.Create(*trajPath)
		if err != nil {
			log.Fatal(err)
		}
		trajFile = f
		tw, err = traj.NewWriter(f, sys.N(), sys.Box)
		if err != nil {
			log.Fatal(err)
		}
	}

	// Profiling covers only the dynamics loop: setup (building, binning,
	// minimization) would otherwise dominate short runs.
	if *cpuprofile != "" {
		f, err := os.Create(*cpuprofile)
		if err != nil {
			log.Fatal(err)
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			log.Fatal(err)
		}
		defer func() {
			pprof.StopCPUProfile()
			if err := f.Close(); err != nil {
				log.Fatalf("writing CPU profile %s: %v", *cpuprofile, err)
			}
		}()
	}
	if *memprofile != "" {
		defer func() {
			f, err := os.Create(*memprofile)
			if err != nil {
				log.Fatal(err)
			}
			runtime.GC() // materialize the steady-state live set
			err = pprof.WriteHeapProfile(f)
			if cerr := f.Close(); err == nil {
				err = cerr
			}
			if err != nil {
				log.Fatalf("writing heap profile %s: %v", *memprofile, err)
			}
		}()
	}

	// On SIGINT/SIGTERM the dynamics loop exits cleanly at the next step
	// boundary, so the trajectory, trace, and final checkpoint below are
	// all still written — an interrupted run is a shorter run, not a
	// corrupted one.
	ctx, stop := signal.NotifyContext(context.Background(), syscall.SIGINT, syscall.SIGTERM)
	defer stop()

	defer eng.Close()
	constraints := eng.Constraints()
	start := time.Now()
	done := 0
	for s := 1; s <= *steps; s++ {
		if ctx.Err() != nil {
			fmt.Printf("interrupted after step %d; flushing outputs\n", done)
			break
		}
		if constraints != nil {
			if err := eng.StepConstrained(*dt, constraints); err != nil {
				log.Fatal(err)
			}
		} else {
			eng.Step(*dt)
		}
		done = s
		if s%*every == 0 || s == *steps {
			fmt.Printf("step %5d  t=%7.1f fs  T=%6.1f K  %s\n",
				s, float64(s)**dt, eng.Temperature(), eng.Energies())
		}
		if tw != nil && s%*trajEvery == 0 {
			if err := tw.WriteFrame(int64(s), float64(s)**dt, st.Pos); err != nil {
				log.Fatal(err)
			}
		}
	}
	if tw != nil {
		// A buffered frame or close failure means the trajectory on disk
		// is incomplete — that must not pass silently.
		err := tw.Flush()
		if cerr := trajFile.Close(); err == nil {
			err = cerr
		}
		if err != nil {
			log.Fatalf("writing trajectory %s: %v", *trajPath, err)
		}
		fmt.Printf("wrote %d trajectory frames to %s\n", tw.Frames(), *trajPath)
	}
	if *ckptPath != "" {
		err := ckpt.AtomicWriteFile(*ckptPath, func(w io.Writer) error {
			return sysio.Save(w, sys, st)
		})
		if err != nil {
			log.Fatalf("writing checkpoint %s: %v", *ckptPath, err)
		}
		fmt.Printf("wrote snapshot at step %d to %s (continue with -in %s)\n", done, *ckptPath, *ckptPath)
	}
	if mrec != nil {
		// Close takes a final sample (so even -metricsevery 0 runs leave a
		// record) and flushes before the file is sealed.
		err := mrec.Close()
		if cerr := mfw.Close(); err == nil {
			err = cerr
		}
		if err != nil {
			log.Fatalf("writing telemetry %s: %v", *metricsPath, err)
		}
		fmt.Printf("wrote %d telemetry samples to %s (analyze with projections -ftdc)\n",
			mrec.SampleCount(), *metricsPath)
	}
	el := time.Since(start)
	if done > 0 {
		fmt.Printf("%d steps in %v (%.2f ms/step)\n", done, el.Round(time.Millisecond),
			float64(el.Microseconds())/1e3/float64(done))
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
			log.Fatalf("writing trace %s: %v", *tracePath, err)
		}
		fmt.Printf("wrote %d trace records to %s\n", len(tlog.Records), *tracePath)
	}
	if *profile {
		fmt.Println()
		gonamd.AnalyzeTrace(tlog, gonamd.ProjectionsOptions{}).WriteText(os.Stdout)
	}
}
