// analysis runs a short water simulation, writes a binary trajectory,
// reads it back, and computes the standard structural and dynamic
// analyses: the O-O radial distribution function and the mean squared
// displacement.
package main

import (
	"bytes"
	"fmt"
	"log"

	"gonamd"
	"gonamd/internal/forcefield"
)

func main() {
	log.SetFlags(0)
	spec := gonamd.WaterBoxSpec(18, 7)
	sys, st, err := gonamd.BuildSystem(spec)
	if err != nil {
		log.Fatal(err)
	}
	ff := gonamd.StandardForceField(7.0)

	eng, err := gonamd.NewSequential(sys, ff, st, gonamd.WithClusterLists(4, 8))
	if err != nil {
		log.Fatal(err)
	}
	eng.Minimize(200, 0.2)

	var buf bytes.Buffer
	w, err := gonamd.NewTrajWriter(&buf, sys.N(), sys.Box)
	if err != nil {
		log.Fatal(err)
	}
	const frames = 40
	for f := 0; f < frames; f++ {
		if _, err := eng.Run(5, 1.0); err != nil { // 5 fs between frames
			log.Fatal(err)
		}
		if err := w.WriteFrame(int64(f*5), float64(f*5), st.Pos); err != nil {
			log.Fatal(err)
		}
	}
	if err := w.Flush(); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("simulated %d fs of %d waters; trajectory: %d frames, %d bytes (cluster list rebuilds: %d)\n",
		frames*5, sys.N()/3, w.Frames(), buf.Len(), eng.ClusterRebuilds())

	r, err := gonamd.NewTrajReader(&buf)
	if err != nil {
		log.Fatal(err)
	}
	all, err := r.ReadAll()
	if err != nil {
		log.Fatal(err)
	}

	isO := func(i int) bool { return sys.Atoms[i].Type == forcefield.TypeOW }
	g := gonamd.RDF(sys, all, isO, isO, 8.0, 32)
	fmt.Println("\nO-O radial distribution function g(r):")
	for b, v := range g {
		r0 := float64(b) * 0.25
		bar := int(v * 12)
		if bar > 60 {
			bar = 60
		}
		fmt.Printf("%5.2f Å |%s %.2f\n", r0, stars(bar), v)
	}

	msd := gonamd.MSD(sys, all, isO)
	fmt.Println("\nO mean squared displacement:")
	for f := 0; f < len(msd); f += 8 {
		fmt.Printf("t=%4d fs  MSD=%6.3f Å²\n", f*5, msd[f])
	}
}

func stars(n int) string {
	s := make([]byte, n)
	for i := range s {
		s[i] = '*'
	}
	return string(s)
}
