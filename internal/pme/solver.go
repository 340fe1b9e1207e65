package pme

import (
	"gonamd/internal/fft"
	"gonamd/internal/units"
	"gonamd/internal/vec"
)

// ExclusionSource yields every excluded or modified (1-4) pair of a
// topology, with i < j, in a deterministic order. topology.System
// implements it.
type ExclusionSource interface {
	ForEachExcludedPair(fn func(i, j int32, modified bool))
}

// Solver bundles the engine-facing slow-force machinery of full
// electrostatics: the reciprocal-space mesh sum plus the constant self
// and background terms and the per-pair corrections for excluded and
// scaled pairs. The engine (internal/engine) drives one Solver; the erfc
// real-space term is not handled here — it rides in the nonbonded pair
// kernels via forcefield.Params.EwaldBeta.
//
// Evaluate is deterministic and bitwise independent of the pool's worker
// count: the mesh sum is by construction (see Recip.Compute) and the
// correction loop runs serially in fixed pair order.
type Solver struct {
	Recip *Recip
	// MTSPeriod is the multiple-timestepping split: the engines evaluate
	// the reciprocal sum once every MTSPeriod steps and apply it as an
	// impulse (Verlet-I/r-RESPA). 1 means every step.
	MTSPeriod int
	// Q holds the per-atom charges the solver was built with.
	Q []float64

	// SlowEnergy and SlowVirial are the results of the last Evaluate:
	// reciprocal + corrections + constant terms, in kcal/mol.
	SlowEnergy float64
	SlowVirial float64
	// Evals counts reciprocal evaluations (for verifying the MTS saving).
	Evals int
	// Primed reports whether the slow forces correspond to an evaluated
	// configuration; engines clear it (via Invalidate) when positions are
	// edited externally.
	Primed bool
	// Counter is the engines' inner-step index within the current MTS
	// cycle (0 ≤ Counter < MTSPeriod).
	Counter int

	fr []vec.V3 // slow forces: reciprocal + corrections

	// Excluded and scaled (1-4) pairs needing reciprocal-space
	// corrections: the mesh sum includes every pair at full strength, so
	// pair (i, j) gets -fac·qᵢqⱼ·erf(βr)/r with fac = 1 for full
	// exclusions and (1 - Scale14Elec) for modified pairs.
	exI, exJ []int32
	exFac    []float64

	constE float64 // self + background energy, fixed for fixed charges
}

// NewSolver builds a slow-force solver for the given reciprocal solver,
// charges, exclusion topology, and 1-4 electrostatic scale.
func NewSolver(recip *Recip, q []float64, scale14Elec float64, excl ExclusionSource, mtsPeriod int) *Solver {
	s := &Solver{
		Recip:     recip,
		MTSPeriod: mtsPeriod,
		Q:         q,
		fr:        make([]vec.V3, len(q)),
	}
	excl.ForEachExcludedPair(func(i, j int32, modified bool) {
		fac := 1.0
		if modified {
			fac = 1 - scale14Elec
		}
		if fac == 0 || q[i] == 0 || q[j] == 0 {
			return
		}
		s.exI = append(s.exI, i)
		s.exJ = append(s.exJ, j)
		s.exFac = append(s.exFac, fac)
	})
	s.constE = SelfEnergy(q, recip.Beta) + BackgroundEnergy(q, recip.Beta, recip.Box)
	return s
}

// Forces returns the slow force array from the last Evaluate. The slice
// is owned by the solver.
func (s *Solver) Forces() []vec.V3 { return s.fr }

// Invalidate marks the slow forces stale and restarts the MTS cycle.
func (s *Solver) Invalidate() {
	s.Primed = false
	s.Counter = 0
}

// Evaluate refreshes the slow forces, energy, and virial at the given
// positions, splitting the mesh work over the pool. It allocates nothing
// after the first call.
func (s *Solver) Evaluate(pos []vec.V3, pool fft.Pool) {
	erec, vrec := s.Recip.Compute(pos, s.Q, s.fr, pool)
	box := s.Recip.Box
	beta := s.Recip.Beta
	ecorr := 0.0
	for k := range s.exI {
		i, j := s.exI[k], s.exJ[k]
		d := vec.MinImage(pos[i], pos[j], box)
		r2 := d.Norm2()
		if r2 == 0 {
			continue
		}
		qq := units.Coulomb * s.Q[i] * s.Q[j] * s.exFac[k]
		ec, fOverR := ExclusionTerm(qq, r2, beta)
		ecorr += ec
		f := d.Scale(fOverR)
		s.fr[i] = s.fr[i].Add(f)
		s.fr[j] = s.fr[j].Sub(f)
		vrec += fOverR * r2
	}
	s.SlowEnergy = erec + ecorr + s.constE
	s.SlowVirial = vrec
	s.Evals++
	s.Primed = true
}
