// Package seq holds the oracles the engine (internal/engine) is validated
// against, and nothing that advances a system: BruteForce, an O(N²)
// double loop over every pair, and CellWalk, the list-free cell walk
// through the scalar kernel — forces as a pure function of positions, and
// the paper's "single processor time" baseline. Neither shares code with
// the engine's task path beyond the forcefield kernels. The engine runs
// CellWalk as its reference nonbonded mode (gonamd.NewSequential without
// WithClusterLists).
package seq

import (
	"fmt"

	"gonamd/internal/forcefield"
	"gonamd/internal/spatial"
	"gonamd/internal/topology"
	"gonamd/internal/vec"
)

// DefaultClusterSkin is the Verlet skin (Å) of the engine's cluster pair
// lists.
const DefaultClusterSkin = 1.5

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

// CellWalk evaluates nonbonded forces from cell lists rebinned at the
// positions it is given, one scalar Nonbonded call per pair. No list is
// carried between evaluations, so the forces are a pure function of the
// positions.
type CellWalk struct {
	binner *spatial.Binner // reusable zero-alloc rebinning
	nbrs   [][]int32       // per-cell upper-half neighbor cells (nb > cell), precomputed
}

// NewCellWalk prepares the walk over cells at least cutoff wide.
func NewCellWalk(box vec.V3, cutoff float64) (*CellWalk, error) {
	grid, err := spatial.NewGrid(box, cutoff)
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
	return &CellWalk{binner: spatial.NewBinner(grid), nbrs: nbrs}, nil
}

// Nonbonded adds the force of every within-cutoff pair to forces and its
// energy and virial to en. Exclusions are detected during the pairwise
// loop, as the paper describes ("these pairs must be detected as a part
// of the normal pairwise force computation").
func (c *CellWalk) Nonbonded(sys *topology.System, ff *forcefield.Params, pos, forces []vec.V3, en *Energies) {
	bins := c.binner.Bin(pos)
	cutoff2 := ff.Cutoff * ff.Cutoff
	for cell, atoms := range bins {
		// Within-cell pairs.
		for x := 0; x < len(atoms); x++ {
			for y := x + 1; y < len(atoms); y++ {
				pairForce(sys, ff, pos, forces, atoms[x], atoms[y], cutoff2, en)
			}
		}
		// Cross-cell pairs, each cell pair visited once (nbrs holds only
		// neighbors with id > cell).
		for _, nb := range c.nbrs[cell] {
			for _, i := range atoms {
				for _, j := range bins[nb] {
					pairForce(sys, ff, pos, forces, i, j, cutoff2, en)
				}
			}
		}
	}
}

// pairForce screens one candidate pair (cutoff, exclusions) and
// accumulates its scalar-kernel force and energy.
func pairForce(sys *topology.System, ff *forcefield.Params, pos, forces []vec.V3, i, j int32, cutoff2 float64, en *Energies) {
	d := vec.MinImage(pos[i], pos[j], sys.Box)
	r2 := d.Norm2()
	if r2 >= cutoff2 {
		return
	}
	kind := sys.Classify(i, j)
	if kind == topology.PairExcluded {
		return
	}
	ai, aj := &sys.Atoms[i], &sys.Atoms[j]
	evdw, eelec, fOverR := ff.Nonbonded(ai.Type, aj.Type, ai.Charge, aj.Charge, r2, kind == topology.PairModified)
	en.VdW += evdw
	en.Elec += eelec
	en.Virial += fOverR * r2
	f := d.Scale(fOverR)
	forces[i] = forces[i].Add(f)
	forces[j] = forces[j].Sub(f)
}

// bonded adds every bonded term's forces, energy and virial, in
// topology order.
func bonded(sys *topology.System, ff *forcefield.Params, pos, forces []vec.V3, en *Energies) {
	box := sys.Box
	for _, b := range sys.Bonds {
		fi, fj, eb := ff.BondForce(b.Type, pos[b.I], pos[b.J], box)
		en.Bond += eb
		en.Virial += fi.Dot(vec.MinImage(pos[b.I], pos[b.J], box))
		forces[b.I] = forces[b.I].Add(fi)
		forces[b.J] = forces[b.J].Add(fj)
	}
	for _, a := range sys.Angles {
		fi, fj, fk, ea := ff.AngleForce(a.Type, pos[a.I], pos[a.J], pos[a.K], box)
		en.Angle += ea
		// Per-term virial relative to the central atom (forces sum to
		// zero, so any reference gives the same translation-invariant
		// result).
		en.Virial += fi.Dot(vec.MinImage(pos[a.I], pos[a.J], box)) +
			fk.Dot(vec.MinImage(pos[a.K], pos[a.J], box))
		forces[a.I] = forces[a.I].Add(fi)
		forces[a.J] = forces[a.J].Add(fj)
		forces[a.K] = forces[a.K].Add(fk)
	}
	for _, d := range sys.Dihedrals {
		fi, fj, fk, fl, ed := ff.DihedralForce(d.Type, pos[d.I], pos[d.J], pos[d.K], pos[d.L], box)
		en.Dihedral += ed
		en.Virial += fi.Dot(vec.MinImage(pos[d.I], pos[d.J], box)) +
			fk.Dot(vec.MinImage(pos[d.K], pos[d.J], box)) +
			fl.Dot(vec.MinImage(pos[d.L], pos[d.J], box))
		forces[d.I] = forces[d.I].Add(fi)
		forces[d.J] = forces[d.J].Add(fj)
		forces[d.K] = forces[d.K].Add(fk)
		forces[d.L] = forces[d.L].Add(fl)
	}
	for _, d := range sys.Impropers {
		fi, fj, fk, fl, ei := ff.ImproperForce(d.Type, pos[d.I], pos[d.J], pos[d.K], pos[d.L], box)
		en.Improper += ei
		en.Virial += fi.Dot(vec.MinImage(pos[d.I], pos[d.J], box)) +
			fk.Dot(vec.MinImage(pos[d.K], pos[d.J], box)) +
			fl.Dot(vec.MinImage(pos[d.L], pos[d.J], box))
		forces[d.I] = forces[d.I].Add(fi)
		forces[d.J] = forces[d.J].Add(fj)
		forces[d.K] = forces[d.K].Add(fk)
		forces[d.L] = forces[d.L].Add(fl)
	}
}

// BruteForce computes forces and energies with a direct O(N²) double loop
// (no cell lists): the oracle the cell walk and, through it, every engine
// configuration is validated against.
func BruteForce(sys *topology.System, ff *forcefield.Params, st *topology.State) ([]vec.V3, Energies) {
	forces := make([]vec.V3, sys.N())
	var en Energies
	cutoff2 := ff.Cutoff * ff.Cutoff
	for i := int32(0); i < int32(sys.N()); i++ {
		for j := i + 1; j < int32(sys.N()); j++ {
			pairForce(sys, ff, st.Pos, forces, i, j, cutoff2, &en)
		}
	}
	bonded(sys, ff, st.Pos, forces, &en)
	return forces, en
}
