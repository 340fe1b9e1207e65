package engine

import (
	"fmt"

	"gonamd/internal/topology"
	"gonamd/internal/trace"
	"gonamd/internal/vec"
)

// Constraints implements SHAKE/RATTLE bond-length constraints, the
// standard technique (used by NAMD and CHARMM) for freezing the fastest
// bond vibrations — typically bonds to hydrogen — so the timestep can be
// raised from ~0.5 fs to 2 fs.
type Constraints struct {
	pairs  []constraintPair
	Tol    float64 // relative tolerance on |r|² (default 1e-8)
	MaxIts int     // iteration cap per step (default 100)

	// prev is StepConstrained's copy of the pre-drift positions, reused
	// across steps: a Constraints value serves one engine at a time.
	prev []vec.V3
}

type constraintPair struct {
	i, j int32
	d2   float64 // target squared length
	rmI  float64 // 1/mass
	rmJ  float64
}

// NewHBondConstraints builds constraints for every bond involving a
// hydrogen (mass < 3.5 amu), fixed at the bond type's equilibrium length.
func NewHBondConstraints(sys *topology.System, r0 func(typ int32) float64) (*Constraints, error) {
	c := &Constraints{Tol: 1e-8, MaxIts: 100}
	for _, b := range sys.Bonds {
		mi, mj := sys.Atoms[b.I].Mass, sys.Atoms[b.J].Mass
		if mi >= 3.5 && mj >= 3.5 {
			continue
		}
		d := r0(b.Type)
		if d <= 0 {
			return nil, fmt.Errorf("engine: constraint bond type %d has target length %g", b.Type, d)
		}
		c.pairs = append(c.pairs, constraintPair{
			i: b.I, j: b.J, d2: d * d, rmI: 1 / mi, rmJ: 1 / mj,
		})
	}
	return c, nil
}

// Count returns the number of constrained bonds.
func (c *Constraints) Count() int { return len(c.pairs) }

// SetConstraints attaches a constraint set built at construction time;
// Constraints returns it (nil when none were attached). The engine does
// not apply them implicitly — callers drive StepConstrained.
func (e *Engine) SetConstraints(c *Constraints) { e.cons = c }

// Constraints returns the constraint set attached at construction.
func (e *Engine) Constraints() *Constraints { return e.cons }

// Shake iteratively corrects positions (and the velocities implied by the
// position change over dt) so every constrained bond has its target
// length. prev holds the positions before the unconstrained drift.
// It returns the number of iterations used or an error if the solver did
// not converge.
func (c *Constraints) Shake(st *topology.State, prev []vec.V3, box vec.V3, dt float64) (int, error) {
	if len(c.pairs) == 0 {
		return 0, nil
	}
	for it := 1; it <= c.MaxIts; it++ {
		converged := true
		for _, p := range c.pairs {
			d := vec.MinImage(st.Pos[p.i], st.Pos[p.j], box)
			diff := d.Norm2() - p.d2
			if diff < -c.Tol*p.d2 || diff > c.Tol*p.d2 {
				converged = false
				// Standard SHAKE correction along the old bond vector.
				ref := vec.MinImage(prev[p.i], prev[p.j], box)
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
			return it, nil
		}
	}
	return c.MaxIts, fmt.Errorf("engine: SHAKE did not converge in %d iterations", c.MaxIts)
}

// Rattle removes the velocity components along each constrained bond
// (the RATTLE velocity constraint after the second half-kick).
func (c *Constraints) Rattle(st *topology.State, box vec.V3) (int, error) {
	if len(c.pairs) == 0 {
		return 0, nil
	}
	for it := 1; it <= c.MaxIts; it++ {
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
			return it, nil
		}
	}
	return c.MaxIts, fmt.Errorf("engine: RATTLE did not converge in %d iterations", c.MaxIts)
}

// StepConstrained advances one velocity-Verlet step with SHAKE/RATTLE
// constraints applied. An error (the solver did not converge) leaves the
// step unfinished and uncounted.
func (e *Engine) StepConstrained(dt float64, c *Constraints) error {
	e.ensureForces()
	c.prev = append(c.prev[:0], e.St.Pos...)
	t := e.phaseNow()
	e.kickDrift(e.forces, dt)
	if _, err := c.Shake(e.St, c.prev, e.Sys.Box, dt); err != nil {
		return err
	}
	// SHAKE corrections move atoms beyond the |v|·dt drift, so the list's
	// drift bound is unknown; Invalidate forces a displacement scan.
	e.Invalidate()
	e.phaseEmit("integrate", trace.CatIntegration, t)
	e.ComputeForces()
	t = e.phaseNow()
	e.kick(e.forces, 0.5*dt)
	if _, err := c.Rattle(e.St, e.Sys.Box); err != nil {
		return err
	}
	if e.Thermo != nil {
		e.Thermo.Apply(e.Sys, e.St, dt)
	}
	e.phaseEmit("integrate", trace.CatIntegration, t)
	e.finishStep()
	return nil
}
