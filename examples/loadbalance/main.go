// loadbalance walks through the paper's three-stage measurement-based
// load balancing (§3.2) on the bR benchmark: static placement only, then
// greedy + refinement, showing step times, the balancer's own imbalance
// statistics, and proxy counts at each stage.
package main

import (
	"fmt"
	"log"

	"gonamd"
	"gonamd/internal/ldb"
)

func main() {
	log.SetFlags(0)
	spec := gonamd.BRSpec()
	spec.Temperature = 0
	sys, st, err := gonamd.BuildSystem(spec)
	if err != nil {
		log.Fatal(err)
	}
	grid, err := gonamd.NewGridDims(sys, spec.PatchDims, gonamd.Cutoff)
	if err != nil {
		log.Fatal(err)
	}
	w, err := gonamd.BuildWorkload(spec.Name, sys, st, grid, gonamd.Cutoff, gonamd.Cutoff+1.5)
	if err != nil {
		log.Fatal(err)
	}
	model := gonamd.ASCIRed()

	const pes = 48
	base := gonamd.ClusterConfig{
		PEs:          pes,
		Model:        model,
		SplitSelf:    true,
		GrainSplit:   true,
		SplitBonded:  true,
		MulticastOpt: true,
	}

	// Stage 1: static placement only (patches via recursive coordinate
	// bisection, computes at their base patch homes).
	cfg := base
	cfg.LB = ldb.NoOp{}
	sim, err := gonamd.NewClusterSim(w, cfg)
	if err != nil {
		log.Fatal(err)
	}
	static := sim.Run()
	fmt.Printf("%s on %d simulated PEs (%d compute objects)\n\n", spec.Name, pes, static.NumComputes)
	fmt.Printf("stage 1, static placement:        %8.2f ms/step (max %d proxies/patch)\n",
		static.AvgStep*1e3, static.MaxProxiesPerPatch)

	// Stages 2+3: measurement-based greedy remap, then refinement.
	sim, err = gonamd.NewClusterSim(w, base)
	if err != nil {
		log.Fatal(err)
	}
	balanced := sim.Run()
	fmt.Printf("stages 2+3, greedy then refine:   %8.2f ms/step (max %d proxies/patch)\n\n",
		balanced.AvgStep*1e3, balanced.MaxProxiesPerPatch)

	for i, lb := range balanced.LBStats {
		name := "greedy+refine"
		if i == 1 {
			name = "refine only"
		}
		fmt.Printf("balancing pass %d (%s): predicted max load %.2f ms, avg %.2f ms, imbalance %.2f ms, %d proxies\n",
			i+1, name, lb.MaxLoad*1e3, lb.AvgLoad*1e3, lb.Imbalance*1e3, lb.Proxies)
	}
	fmt.Printf("\nspeedup from load balancing: %.2f×\n", static.AvgStep/balanced.AvgStep)
}
