package engine

import (
	"fmt"

	"gonamd/internal/forcefield"
	"gonamd/internal/topology"
	"gonamd/internal/vec"
)

// constraints implements SHAKE/RATTLE bond-length constraints, the
// standard technique (used by NAMD and CHARMM) for freezing the fastest
// bond vibrations — typically bonds to hydrogen — so the timestep can be
// raised from ~0.5 fs to 2 fs. Step runs SHAKE after the drift and
// RATTLE after the closing half-kick.
type constraints struct {
	pairs []constraintPair

	// prev is Step's copy of the pre-drift positions, reused across steps.
	prev []vec.V3
}

type constraintPair struct {
	i, j int32
	d2   float64 // target squared length
	rmI  float64 // 1/mass
	rmJ  float64
}

const (
	shakeTol    = 1e-8 // relative tolerance on |r|²
	shakeMaxIts = 100  // iteration cap per step
)

// newHBondConstraints builds constraints for every bond involving a
// hydrogen (mass < 3.5 amu), fixed at the bond type's equilibrium length.
func newHBondConstraints(sys *topology.System, ff *forcefield.Params) (*constraints, error) {
	c := &constraints{}
	for _, b := range sys.Bonds {
		mi, mj := sys.Atoms[b.I].Mass, sys.Atoms[b.J].Mass
		if mi >= 3.5 && mj >= 3.5 {
			continue
		}
		d := ff.BondTypes[b.Type].R0
		if d <= 0 {
			return nil, fmt.Errorf("engine: constraint bond type %d has target length %g", b.Type, d)
		}
		c.pairs = append(c.pairs, constraintPair{
			i: b.I, j: b.J, d2: d * d, rmI: 1 / mi, rmJ: 1 / mj,
		})
	}
	return c, nil
}

// shake iteratively corrects positions (and the velocities implied by the
// position change over dt) so every constrained bond has its target
// length; c.prev holds the positions before the unconstrained drift. It
// returns an error if the solver did not converge.
func (c *constraints) shake(st *topology.State, box vec.V3, dt float64) error {
	for it := 1; it <= shakeMaxIts; it++ {
		converged := true
		for _, p := range c.pairs {
			d := vec.MinImage(st.Pos[p.i], st.Pos[p.j], box)
			diff := d.Norm2() - p.d2
			if diff < -shakeTol*p.d2 || diff > shakeTol*p.d2 {
				converged = false
				// Standard SHAKE correction along the old bond vector.
				ref := vec.MinImage(c.prev[p.i], c.prev[p.j], box)
				g := diff / (2 * (p.rmI + p.rmJ) * ref.Dot(d))
				corrI := ref.Scale(-g * p.rmI)
				corrJ := ref.Scale(g * p.rmJ)
				st.Pos[p.i] = vec.Wrap(st.Pos[p.i].Add(corrI), box)
				st.Pos[p.j] = vec.Wrap(st.Pos[p.j].Add(corrJ), box)
				// Velocity update consistent with the position change.
				st.Vel[p.i] = st.Vel[p.i].Add(corrI.Scale(1 / dt))
				st.Vel[p.j] = st.Vel[p.j].Add(corrJ.Scale(1 / dt))
			}
		}
		if converged {
			return nil
		}
	}
	return fmt.Errorf("engine: SHAKE did not converge in %d iterations", shakeMaxIts)
}

// rattle removes the velocity components along each constrained bond
// (the RATTLE velocity constraint after the second half-kick).
func (c *constraints) rattle(st *topology.State, box vec.V3) error {
	for it := 1; it <= shakeMaxIts; it++ {
		converged := true
		for _, p := range c.pairs {
			d := vec.MinImage(st.Pos[p.i], st.Pos[p.j], box)
			vRel := st.Vel[p.i].Sub(st.Vel[p.j])
			dot := d.Dot(vRel)
			// Tolerance relative to a typical thermal bond-velocity scale.
			if dot > 1e-10 || dot < -1e-10 {
				converged = false
				k := dot / ((p.rmI + p.rmJ) * p.d2)
				st.Vel[p.i] = st.Vel[p.i].Sub(d.Scale(k * p.rmI))
				st.Vel[p.j] = st.Vel[p.j].Add(d.Scale(k * p.rmJ))
			}
		}
		if converged {
			return nil
		}
	}
	return fmt.Errorf("engine: RATTLE did not converge in %d iterations", shakeMaxIts)
}
