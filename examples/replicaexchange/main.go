// Replica exchange: run four replicas of a water box on a temperature
// ladder, let neighboring rungs swap configurations under the Metropolis
// rule, inspect the exchange statistics and the per-replica trace, then
// demonstrate exact checkpoint/restart: a resumed ensemble finishes in a
// state bitwise-identical to one that never stopped.
package main

import (
	"bytes"
	"fmt"
	"hash/fnv"
	"log"
	"math"

	"gonamd"
)

func main() {
	log.SetFlags(0)

	// 1. Build and relax a small water box.
	sys, st, err := gonamd.BuildSystem(gonamd.WaterBoxSpec(14, 2024))
	if err != nil {
		log.Fatal(err)
	}
	ff := gonamd.StandardForceField(7.0)
	m, err := gonamd.NewSequential(sys, ff, st)
	if err != nil {
		log.Fatal(err)
	}
	m.Minimize(100, 0.2)
	fmt.Printf("system: %d atoms, box %v Å\n", sys.N(), sys.Box)

	// 2. Four rungs, geometrically spaced. A tight ladder keeps the
	// potential-energy distributions of neighbors overlapping, which is
	// what gives usable acceptance rates.
	ladder := gonamd.GeometricLadder(300, 330, 4)
	tlog := gonamd.NewTraceLog()
	cfg := gonamd.EnsembleConfig{
		Temperatures:  ladder,
		Dt:            0.5,
		ExchangeEvery: 20,
		Seed:          7,
		Trace:         tlog,
	}
	fmt.Printf("ladder: %.1f K\n", ladder)

	// 3. Run 300 steps with exchange attempts every 20.
	ens, err := gonamd.NewEnsemble(sys, ff, st, cfg)
	if err != nil {
		log.Fatal(err)
	}
	defer ens.Close()
	if err := ens.Run(300); err != nil {
		log.Fatal(err)
	}
	att, acc := ens.ExchangeCounts()
	for i, rate := range ens.AcceptanceRates() {
		fmt.Printf("pair %.1fK <-> %.1fK: accepted %d/%d (%.0f%%)\n",
			ladder[i], ladder[i+1], acc[i], att[i], 100*rate)
	}

	// 4. The trace log covers the ensemble the way Projections covers a
	// single run: per-replica step timing plus every exchange decision.
	fmt.Println("\ntrace summary (top entries):")
	for i, s := range tlog.SummaryByEntry() {
		if i == 3 {
			break
		}
		fmt.Printf("  %-18s ×%-4d total %.3fs\n", s.Entry, s.Count, s.Total)
	}

	// 5. Checkpoint mid-run, keep going, then resume a fresh ensemble from
	// the checkpoint and run it the same number of steps: the two must end
	// bitwise-identical.
	var ck bytes.Buffer
	if err := ens.Checkpoint(&ck); err != nil {
		log.Fatal(err)
	}
	if err := ens.Run(200); err != nil {
		log.Fatal(err)
	}

	resumed, err := gonamd.NewEnsemble(sys, ff, st, cfg)
	if err != nil {
		log.Fatal(err)
	}
	defer resumed.Close()
	if err := resumed.Resume(bytes.NewReader(ck.Bytes())); err != nil {
		log.Fatal(err)
	}
	if err := resumed.Run(200); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\nuninterrupted run: step %d, state hash %x\n", ens.Step(), hash(ens))
	fmt.Printf("resumed run:       step %d, state hash %x\n", resumed.Step(), hash(resumed))
	if hash(ens) == hash(resumed) {
		fmt.Println("kill-and-resume is bitwise-identical ✓")
	} else {
		fmt.Println("MISMATCH: resumed trajectory diverged ✗")
	}
}

// hash digests every replica's positions and velocities bit-for-bit.
func hash(e *gonamd.Ensemble) uint64 {
	h := fnv.New64a()
	var b [8]byte
	word := func(f float64) {
		u := math.Float64bits(f)
		for i := range b {
			b[i] = byte(u >> (8 * i))
		}
		h.Write(b[:])
	}
	for i := 0; i < e.NumReplicas(); i++ {
		st := e.Replica(i).State()
		for k := range st.Pos {
			word(st.Pos[k].X)
			word(st.Pos[k].Y)
			word(st.Pos[k].Z)
			word(st.Vel[k].X)
			word(st.Vel[k].Y)
			word(st.Vel[k].Z)
		}
	}
	return h.Sum64()
}
