// grainsize demonstrates §4.2.1 grainsize control (Figures 1-2): the
// distribution of nonbonded compute-object execution times before and
// after splitting heavy face-pair computes, on the bR benchmark.
package main

import (
	"fmt"
	"log"

	"gonamd"
	"gonamd/internal/ldb"
	"gonamd/internal/projections"
	"gonamd/internal/trace"
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

	run := func(split bool) {
		sim, err := gonamd.NewClusterSim(w, gonamd.ClusterConfig{
			PEs:          16,
			Model:        model,
			SplitSelf:    true,
			GrainSplit:   split,
			SplitBonded:  true,
			MulticastOpt: true,
			LB:           ldb.NoOp{},
			MeasureSteps: 2,
			CollectTrace: true,
		})
		if err != nil {
			log.Fatal(err)
		}
		res := sim.Run()
		h := projections.DurationHistogram(res.Trace, 0.2e-3, func(rec trace.ExecRecord) bool {
			for _, sp := range rec.Spans {
				if sp.Cat == trace.CatNonbonded {
					return true
				}
			}
			return false
		})
		label := "before splitting (Figure 1)"
		if split {
			label = "after splitting (Figure 2)"
		}
		fmt.Printf("%s: %d nonbonded executions, max grainsize %.2f ms, upper-mode fraction %.2f\n%s\n",
			label, h.N, h.MaxVal*1e3, h.Bimodality(), h.String())
	}
	run(false)
	run(true)
}
