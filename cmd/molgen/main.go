// Command molgen builds a synthetic benchmark system and describes it:
// composition, density, bonded topology, charge, patch decomposition, and
// work distribution statistics.
package main

import (
	"flag"
	"fmt"
	"log"
	"os"
	"sort"

	"gonamd"
	"gonamd/internal/molgen"
	"gonamd/internal/sysio"
)

func main() {
	log.SetFlags(0)
	system := flag.String("system", "apoa1", "system: water, br, apoa1, bc1")
	side := flag.Float64("side", 24, "water box side, Å")
	seed := flag.Uint64("seed", 1, "builder seed")
	out := flag.String("o", "", "save the built system to this file (load with mdrun -in)")
	flag.Parse()

	spec, err := molgen.Preset(*system, *side, *seed)
	if err != nil {
		log.Fatal(err)
	}
	sys, st, err := gonamd.BuildSystem(spec)
	if err != nil {
		log.Fatal(err)
	}
	vol := sys.Box.X * sys.Box.Y * sys.Box.Z
	var q float64
	for _, a := range sys.Atoms {
		q += a.Charge
	}
	full, modified := sys.NumExclusions()

	fmt.Printf("system:      %s\n", spec.Name)
	fmt.Printf("atoms:       %d (%.4f atoms/Å³)\n", sys.N(), float64(sys.N())/vol)
	fmt.Printf("box:         %.2f × %.2f × %.2f Å\n", sys.Box.X, sys.Box.Y, sys.Box.Z)
	fmt.Printf("bonds:       %d\n", len(sys.Bonds))
	fmt.Printf("angles:      %d\n", len(sys.Angles))
	fmt.Printf("dihedrals:   %d\n", len(sys.Dihedrals))
	fmt.Printf("impropers:   %d\n", len(sys.Impropers))
	fmt.Printf("exclusions:  %d full, %d modified (1-4)\n", full, modified)
	fmt.Printf("net charge:  %+.3f e\n", q)

	var grid *gonamd.Grid
	if spec.PatchDims != [3]int{} {
		grid, err = gonamd.NewGridDims(sys, spec.PatchDims, gonamd.Cutoff)
	} else {
		grid, err = gonamd.NewGrid(sys, gonamd.Cutoff)
	}
	if err != nil {
		log.Fatal(err)
	}
	bins := grid.Bin(st.Pos)
	counts := make([]int, len(bins))
	for i, b := range bins {
		counts[i] = len(b)
	}
	sort.Ints(counts)
	fmt.Printf("patches:     %d (%d×%d×%d), %.1f Å edges\n",
		grid.NumPatches(), grid.Dim[0], grid.Dim[1], grid.Dim[2], grid.Size.X)
	fmt.Printf("atoms/patch: min %d, median %d, max %d (density contrast drives load imbalance)\n",
		counts[0], counts[len(counts)/2], counts[len(counts)-1])

	if *out != "" {
		f, err := os.Create(*out)
		if err != nil {
			log.Fatal(err)
		}
		// Close errors are real write errors on buffered filesystems: a
		// silently truncated system file would fail obscurely in mdrun.
		err = sysio.Save(f, sys, st)
		if cerr := f.Close(); err == nil {
			err = cerr
		}
		if err != nil {
			log.Fatalf("saving %s: %v", *out, err)
		}
		fmt.Printf("saved:       %s\n", *out)
	}
}
