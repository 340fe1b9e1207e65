// Package seq is the sequential molecular dynamics engine. It evaluates
// the full CHARMM-style force field, integrates with velocity Verlet, and
// provides a steepest-descent minimizer. Nonbonded forces take one of two
// paths: M×N cluster pair lists (EnableClusterLists, the production path
// shared with internal/par) or, with no list enabled, a list-free cell
// walk through the scalar kernel — the reference oracle every other
// configuration is validated against, and the paper's "single processor
// time" baseline.
package seq

import (
	"fmt"

	"gonamd/internal/forcefield"
	"gonamd/internal/ftdc"
	"gonamd/internal/pme"
	"gonamd/internal/spatial"
	"gonamd/internal/thermo"
	"gonamd/internal/topology"
	"gonamd/internal/trace"
	"gonamd/internal/units"
	"gonamd/internal/vec"
)

// Energies is the decomposed energy of a configuration, in kcal/mol.
type Energies struct {
	Bond, Angle, Dihedral, Improper float64
	VdW, Elec                       float64
	Kinetic                         float64

	// Virial is W = Σ r·F over all interactions (kcal/mol), used for
	// pressure: P·V = N·kB·T + W/3.
	Virial float64
}

// Potential returns the total potential energy.
func (e Energies) Potential() float64 {
	return e.Bond + e.Angle + e.Dihedral + e.Improper + e.VdW + e.Elec
}

// Total returns potential plus kinetic energy.
func (e Energies) Total() float64 { return e.Potential() + e.Kinetic }

// String formats the energies in a log-friendly single line.
func (e Energies) String() string {
	return fmt.Sprintf("bond=%.3f angle=%.3f dihe=%.3f impr=%.3f vdw=%.3f elec=%.3f kin=%.3f total=%.3f",
		e.Bond, e.Angle, e.Dihedral, e.Improper, e.VdW, e.Elec, e.Kinetic, e.Total())
}

// Engine advances a molecular system sequentially.
type Engine struct {
	Sys *topology.System
	FF  *forcefield.Params
	St  *topology.State

	// Thermo, when non-nil, is applied to the velocities after every
	// step (NVT dynamics). Nil gives plain NVE.
	Thermo thermo.Thermostat

	grid   *spatial.Grid
	binner *spatial.Binner // reusable zero-alloc rebinning
	nbrs   [][]int32       // per-cell upper-half neighbor cells (nb > cell), precomputed

	forces []vec.V3
	cur    Energies
	fresh  bool // forces correspond to current positions

	// clusters, when non-nil, switches nonbonded evaluation to M×N
	// cluster pair lists (see clusterlist.go).
	clusters *clusterState

	// pme, when non-nil, holds the full-electrostatics slow-force solver
	// (see pme.go): the pair kernels then evaluate the erfc real-space
	// term and Step follows the impulse-MTS reciprocal schedule.
	pme *pme.Solver

	// tr, when non-nil, receives per-phase execution records (see
	// tracing.go); steps counts completed Step calls for the markers.
	tr    *trace.Recorder
	steps int64

	// metrics, when non-nil, receives the always-on telemetry vector
	// after every step (see metrics.go).
	metrics *ftdc.Recorder

	// cons, when non-nil, holds SHAKE/RATTLE constraints attached at
	// construction (the options API); drive them with StepConstrained.
	cons *Constraints
}

// New prepares an engine. The force-field cutoff determines the cell
// size. The state is referenced, not copied.
func New(sys *topology.System, ff *forcefield.Params, st *topology.State) (*Engine, error) {
	if sys.N() != len(st.Pos) || sys.N() != len(st.Vel) {
		return nil, fmt.Errorf("seq: state size %d/%d does not match %d atoms", len(st.Pos), len(st.Vel), sys.N())
	}
	if !sys.ExclusionsBuilt() {
		return nil, fmt.Errorf("seq: exclusions not built")
	}
	grid, err := spatial.NewGrid(sys.Box, ff.Cutoff)
	if err != nil {
		return nil, err
	}
	// Precompute each cell's upper-half neighbor list (nb > cell, so every
	// cell pair is visited once); grid geometry is static, and calling
	// grid.Neighbors per cell per step was a per-step allocation source.
	nbrs := make([][]int32, grid.NumPatches())
	for cell := range nbrs {
		for _, nb := range grid.Neighbors(cell) {
			if nb > cell {
				nbrs[cell] = append(nbrs[cell], int32(nb))
			}
		}
	}
	return &Engine{
		Sys:    sys,
		FF:     ff,
		St:     st,
		grid:   grid,
		binner: spatial.NewBinner(grid),
		nbrs:   nbrs,
		forces: make([]vec.V3, sys.N()),
	}, nil
}

// Forces returns the force array from the last evaluation. The slice is
// owned by the engine.
func (e *Engine) Forces() []vec.V3 {
	e.ensureForces()
	return e.forces
}

// Energies returns the energies from the last force evaluation plus the
// current kinetic energy. With full electrostatics enabled, Elec and
// Virial include the slow reciprocal-space terms from their latest
// evaluation (up to mtsPeriod-1 steps old mid-cycle, by construction of
// the impulse scheme).
func (e *Engine) Energies() Energies {
	e.ensureForces()
	en := e.cur
	if e.pme != nil {
		e.ensureRecip()
		en.Elec += e.pme.SlowEnergy
		en.Virial += e.pme.SlowVirial
	}
	en.Kinetic = e.Kinetic()
	return en
}

func (e *Engine) ensureForces() {
	if !e.fresh {
		e.ComputeForces()
	}
}

// ComputeForces evaluates the full force field at the current positions,
// filling the force array and recording potential energies.
func (e *Engine) ComputeForces() Energies {
	for i := range e.forces {
		e.forces[i] = vec.Zero
	}
	var en Energies
	t := e.phaseNow()
	e.nonbonded(&en)
	t = e.phaseEmit("nonbonded", trace.CatNonbonded, t)
	e.bonded(&en)
	e.phaseEmit("bonded", trace.CatBonded, t)
	e.cur = en
	e.fresh = true
	en.Kinetic = e.Kinetic()
	return en
}

// nonbonded evaluates the nonbonded forces into e.forces: over the
// cluster list when one is enabled (rebuilt first if it went stale),
// otherwise by the reference cell walk.
func (e *Engine) nonbonded(en *Energies) {
	if c := e.clusters; c != nil {
		if !c.guard.Valid(e.St.Pos, e.Sys.Box) {
			e.buildClusterList()
		}
		e.nonbondedFromClusters(en)
		return
	}
	e.nonbondedCells(en)
}

// nonbondedCells is the reference path: all within-cutoff pairs from
// cell lists rebinned at the current positions, one scalar Nonbonded call
// per pair. Exclusions are detected during the pairwise loop, as the
// paper describes ("these pairs must be detected as a part of the normal
// pairwise force computation"). No list is carried between evaluations,
// so the forces are a pure function of the positions.
func (e *Engine) nonbondedCells(en *Energies) {
	bins := e.binner.Bin(e.St.Pos)
	cutoff2 := e.FF.Cutoff * e.FF.Cutoff
	for cell, atoms := range bins {
		// Within-cell pairs.
		for x := 0; x < len(atoms); x++ {
			for y := x + 1; y < len(atoms); y++ {
				e.pairForce(atoms[x], atoms[y], cutoff2, en)
			}
		}
		// Cross-cell pairs, each cell pair visited once (nbrs holds only
		// neighbors with id > cell).
		for _, nb := range e.nbrs[cell] {
			for _, i := range atoms {
				for _, j := range bins[nb] {
					e.pairForce(i, j, cutoff2, en)
				}
			}
		}
	}
}

// pairForce screens one candidate pair (cutoff, exclusions) and
// accumulates its scalar-kernel force and energy.
func (e *Engine) pairForce(i, j int32, cutoff2 float64, en *Energies) {
	d := vec.MinImage(e.St.Pos[i], e.St.Pos[j], e.Sys.Box)
	r2 := d.Norm2()
	if r2 >= cutoff2 {
		return
	}
	kind := e.Sys.Classify(i, j)
	if kind == topology.PairExcluded {
		return
	}
	ai, aj := &e.Sys.Atoms[i], &e.Sys.Atoms[j]
	evdw, eelec, fOverR := e.FF.Nonbonded(ai.Type, aj.Type, ai.Charge, aj.Charge, r2, kind == topology.PairModified)
	en.VdW += evdw
	en.Elec += eelec
	en.Virial += fOverR * r2
	f := d.Scale(fOverR)
	e.forces[i] = e.forces[i].Add(f)
	e.forces[j] = e.forces[j].Sub(f)
}

func (e *Engine) bonded(en *Energies) {
	pos, box := e.St.Pos, e.Sys.Box
	for _, b := range e.Sys.Bonds {
		fi, fj, eb := e.FF.BondForce(b.Type, pos[b.I], pos[b.J], box)
		en.Bond += eb
		en.Virial += fi.Dot(vec.MinImage(pos[b.I], pos[b.J], box))
		e.forces[b.I] = e.forces[b.I].Add(fi)
		e.forces[b.J] = e.forces[b.J].Add(fj)
	}
	for _, a := range e.Sys.Angles {
		fi, fj, fk, ea := e.FF.AngleForce(a.Type, pos[a.I], pos[a.J], pos[a.K], box)
		en.Angle += ea
		// Per-term virial relative to the central atom (forces sum to
		// zero, so any reference gives the same translation-invariant
		// result).
		en.Virial += fi.Dot(vec.MinImage(pos[a.I], pos[a.J], box)) +
			fk.Dot(vec.MinImage(pos[a.K], pos[a.J], box))
		e.forces[a.I] = e.forces[a.I].Add(fi)
		e.forces[a.J] = e.forces[a.J].Add(fj)
		e.forces[a.K] = e.forces[a.K].Add(fk)
	}
	for _, d := range e.Sys.Dihedrals {
		fi, fj, fk, fl, ed := e.FF.DihedralForce(d.Type, pos[d.I], pos[d.J], pos[d.K], pos[d.L], box)
		en.Dihedral += ed
		en.Virial += fi.Dot(vec.MinImage(pos[d.I], pos[d.J], box)) +
			fk.Dot(vec.MinImage(pos[d.K], pos[d.J], box)) +
			fl.Dot(vec.MinImage(pos[d.L], pos[d.J], box))
		e.forces[d.I] = e.forces[d.I].Add(fi)
		e.forces[d.J] = e.forces[d.J].Add(fj)
		e.forces[d.K] = e.forces[d.K].Add(fk)
		e.forces[d.L] = e.forces[d.L].Add(fl)
	}
	for _, d := range e.Sys.Impropers {
		fi, fj, fk, fl, ei := e.FF.ImproperForce(d.Type, pos[d.I], pos[d.J], pos[d.K], pos[d.L], box)
		en.Improper += ei
		en.Virial += fi.Dot(vec.MinImage(pos[d.I], pos[d.J], box)) +
			fk.Dot(vec.MinImage(pos[d.K], pos[d.J], box)) +
			fl.Dot(vec.MinImage(pos[d.L], pos[d.J], box))
		e.forces[d.I] = e.forces[d.I].Add(fi)
		e.forces[d.J] = e.forces[d.J].Add(fj)
		e.forces[d.K] = e.forces[d.K].Add(fk)
		e.forces[d.L] = e.forces[d.L].Add(fl)
	}
}

// Invalidate marks the cached forces stale after positions were modified
// outside the engine (e.g. a replica-exchange configuration swap); the
// next Step or Energies call recomputes them. The cluster list's drift
// bound is also invalidated, since the engine cannot bound how far an
// external edit moved the atoms.
func (e *Engine) Invalidate() {
	e.fresh = false
	if e.clusters != nil {
		e.clusters.guard.Invalidate()
	}
	if e.pme != nil {
		e.pme.Invalidate()
	}
}

// ResetLists drops the cluster-list history so the next force evaluation
// rebuilds the list from the positions it sees, instead of replaying a
// list built at earlier positions. Replay and rebuild agree on which
// pairs contribute (the skin only admits extra pairs the kernels skip),
// but not on the accumulation order, so their sums differ in ulps.
// Dropping the history makes the next evaluation a pure function of
// positions; the job server calls this after every checkpoint so the
// uninterrupted continuation stays bitwise identical to a run resumed
// from that checkpoint. A no-op on the reference path.
func (e *Engine) ResetLists() {
	if e.clusters != nil {
		e.clusters.guard.Drop()
	}
}

// Kinetic returns the kinetic energy in kcal/mol.
func (e *Engine) Kinetic() float64 {
	ke := 0.0
	for i, v := range e.St.Vel {
		ke += 0.5 * e.Sys.Atoms[i].Mass * v.Norm2()
	}
	return ke / units.ForceToAccel
}

// Temperature returns the instantaneous temperature in K.
func (e *Engine) Temperature() float64 {
	return units.KineticToKelvin(e.Kinetic(), 3*e.Sys.N())
}

// atmPerKcalMolA3 converts kcal/mol/Å³ to atmospheres.
const atmPerKcalMolA3 = 68568.4

// Pressure returns the instantaneous pressure in atmospheres from the
// virial equation P·V = N·kB·T + W/3.
func (e *Engine) Pressure() float64 {
	en := e.Energies()
	vol := e.Sys.Box.X * e.Sys.Box.Y * e.Sys.Box.Z
	nkt := float64(e.Sys.N()) * units.Boltzmann * e.Temperature()
	return (nkt + en.Virial/3) / vol * atmPerKcalMolA3
}

// Step advances the system by one velocity-Verlet step of dt femtoseconds.
// With full electrostatics enabled the step follows the impulse-MTS
// schedule in stepPME.
func (e *Engine) Step(dt float64) {
	if e.pme != nil {
		e.stepPME(dt)
		return
	}
	e.ensureForces()
	pos, vel := e.St.Pos, e.St.Vel
	t := e.phaseNow()
	// Half kick + drift, tracking the largest speed: each atom's
	// displacement this step is exactly |v|·dt, which advances the list's
	// drift bound so validity checks can skip their O(N) scan.
	var maxV2 float64
	for i := range pos {
		a := e.forces[i].Scale(units.ForceToAccel / e.Sys.Atoms[i].Mass)
		vel[i] = vel[i].Add(a.Scale(0.5 * dt))
		if v2 := vel[i].Norm2(); v2 > maxV2 {
			maxV2 = v2
		}
		pos[i] = vec.Wrap(pos[i].Add(vel[i].Scale(dt)), e.Sys.Box)
	}
	e.advanceGuard(maxV2, dt)
	e.phaseEmit("integrate", trace.CatIntegration, t)
	// New forces + half kick.
	e.ComputeForces()
	t = e.phaseNow()
	for i := range vel {
		a := e.forces[i].Scale(units.ForceToAccel / e.Sys.Atoms[i].Mass)
		vel[i] = vel[i].Add(a.Scale(0.5 * dt))
	}
	if e.Thermo != nil {
		e.Thermo.Apply(e.Sys, e.St, dt)
	}
	e.phaseEmit("integrate", trace.CatIntegration, t)
	e.markStep()
}

// Run advances n steps of dt femtoseconds and returns the final energies.
func (e *Engine) Run(n int, dt float64) Energies {
	for s := 0; s < n; s++ {
		e.Step(dt)
	}
	return e.Energies()
}

// Minimize performs up to steps iterations of steepest descent with
// per-atom displacements capped at maxMove Å, adapting the step size. It
// returns the final potential energy. Velocities are untouched.
func (e *Engine) Minimize(steps int, maxMove float64) float64 {
	gamma := 1e-4
	prev := e.ComputeForces().Potential()
	saved := make([]vec.V3, len(e.St.Pos))
	for s := 0; s < steps; s++ {
		copy(saved, e.St.Pos)
		for i, f := range e.forces {
			d := f.Scale(gamma)
			if n := d.Norm(); n > maxMove {
				d = d.Scale(maxMove / n)
			}
			e.St.Pos[i] = vec.Wrap(e.St.Pos[i].Add(d), e.Sys.Box)
		}
		e.Invalidate() // minimizer moves are not drift-bound tracked
		cur := e.ComputeForces().Potential()
		if cur > prev {
			// Reject the move and shrink the step.
			copy(e.St.Pos, saved)
			e.Invalidate()
			gamma *= 0.5
			if gamma < 1e-12 {
				break
			}
			continue
		}
		gamma *= 1.2
		prev = cur
	}
	e.ensureForces()
	return prev
}

// BruteForce computes forces and energies with a direct O(N²) double loop
// (no cell lists). It exists to validate the cell-list implementation in
// tests and is exported for the parallel engines' tests too.
func BruteForce(sys *topology.System, ff *forcefield.Params, st *topology.State) ([]vec.V3, Energies) {
	tmp := &Engine{Sys: sys, FF: ff, St: st, forces: make([]vec.V3, sys.N())}
	var en Energies
	cutoff2 := ff.Cutoff * ff.Cutoff
	for i := int32(0); i < int32(sys.N()); i++ {
		for j := i + 1; j < int32(sys.N()); j++ {
			tmp.pairForce(i, j, cutoff2, &en)
		}
	}
	tmp.bonded(&en)
	return tmp.forces, en
}
