// Quickstart: build a small water box, relax it, and run real parallel
// molecular dynamics on all CPU cores, printing energies as it goes.
package main

import (
	"fmt"
	"log"
	"runtime"
	"time"

	"gonamd"
)

func main() {
	log.SetFlags(0)

	// A 24 Å water box (~460 water molecules) at 300 K.
	spec := gonamd.WaterBoxSpec(24, 42)
	sys, st, err := gonamd.BuildSystem(spec)
	if err != nil {
		log.Fatal(err)
	}
	ff := gonamd.StandardForceField(9.0)
	fmt.Printf("built %q: %d atoms, %d bonds, %d angles, box %v Å\n",
		spec.Name, sys.N(), len(sys.Bonds), len(sys.Angles), sys.Box)

	// Relax the packed configuration on one inline worker over the same
	// 4×8 cluster pair lists the dynamics run on.
	minimizer, err := gonamd.NewSequential(sys, ff, st, gonamd.WithClusterLists(4, 8))
	if err != nil {
		log.Fatal(err)
	}
	before := minimizer.Energies().Potential()
	after := minimizer.Minimize(200, 0.2)
	fmt.Printf("minimized: %.1f -> %.1f kcal/mol\n", before, after)

	// Run NVE dynamics on every core over 4×8 cluster pair lists, with a
	// Projections-style trace attached.
	tlog := gonamd.NewTraceLog()
	eng, err := gonamd.NewParallel(sys, ff, st, 0,
		gonamd.WithClusterLists(4, 8), gonamd.WithTrace(tlog))
	if err != nil {
		log.Fatal(err)
	}
	defer eng.Close() // stops the worker goroutines
	fmt.Printf("running on %d workers (%d tasks)\n", eng.Workers(), eng.NumTasks())

	const dt = 0.5 // fs
	start := time.Now()
	for block := 0; block < 5; block++ {
		en, err := eng.Run(20, dt)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("t=%5.1f fs  T=%6.1f K  %s\n",
			float64((block+1)*20)*dt, eng.Temperature(), en)
	}
	elapsed := time.Since(start)
	fmt.Printf("100 steps in %v on %d cores (%.1f ms/step)\n",
		elapsed.Round(time.Millisecond), runtime.NumCPU(),
		float64(elapsed.Milliseconds())/100)

	// Where did the time go? The trace feeds the projections analyzer.
	rep := gonamd.AnalyzeTrace(tlog, gonamd.ProjectionsOptions{})
	fmt.Printf("\nutilization %.1f%% over %d PEs; per-category profile:\n", rep.Utilization*100, rep.PEs)
	for _, c := range rep.Categories {
		fmt.Printf("  %-12s %8.3fs  %5.1f%%\n", c.Category, c.Seconds, c.PctBusy)
	}
}
