// Package molgen builds synthetic biomolecular systems that stand in for
// the paper's benchmark inputs (the real ApoA-I, BC1, and bR structures
// are not redistributable). The builder reproduces what matters for the
// paper's parallel behaviour: exact atom counts, box shapes giving the
// paper's patch grids, a protein/lipid core denser than the surrounding
// water (the source of load imbalance), and a CHARMM-like bonded topology
// (bonds, angles, dihedrals, impropers, exclusions).
package molgen

import (
	"fmt"
	"math"

	"gonamd/internal/forcefield"
	"gonamd/internal/topology"
	"gonamd/internal/units"
	"gonamd/internal/vec"
	"gonamd/internal/xrand"
)

// Spec describes a synthetic system to build.
type Spec struct {
	Name string
	Box  vec.V3 // periodic box, Å

	// PatchDims pins the patch grid used by the decomposition (the
	// paper's 7×7×5 etc.). Zero means "derive from cutoff".
	PatchDims [3]int

	TargetAtoms int // exact total atom count; water fills the remainder

	ProteinChains int // number of protein-like chains
	ChainResidues int // residues per chain (6 atoms per residue)

	LipidCount   int // number of lipid-like molecules in a bilayer slab
	LipidTailLen int // carbons per tail (2 tails per lipid)

	Temperature float64 // K, for initial velocities (0 = no velocities)
	Seed        uint64
}

// Atoms per residue and per lipid, fixed by the builder's templates.
const (
	AtomsPerResidue   = 6
	atomsPerLipidHead = 2
)

// AtomsPerLipid returns the atom count of one lipid with the given tail
// length (head + two tails).
func AtomsPerLipid(tailLen int) int { return atomsPerLipidHead + 2*tailLen }

// StructuredAtoms returns the number of non-water, non-ion atoms the spec
// produces.
func (s Spec) StructuredAtoms() int {
	return s.ProteinChains*s.ChainResidues*AtomsPerResidue + s.LipidCount*AtomsPerLipid(s.LipidTailLen)
}

// Build constructs the system and its initial state.
func Build(spec Spec) (*topology.System, *topology.State, error) {
	if spec.TargetAtoms <= 0 {
		return nil, nil, fmt.Errorf("molgen: TargetAtoms must be positive")
	}
	structured := spec.StructuredAtoms()
	if structured > spec.TargetAtoms {
		return nil, nil, fmt.Errorf("molgen: structured atoms (%d) exceed target (%d)", structured, spec.TargetAtoms)
	}
	remaining := spec.TargetAtoms - structured
	waters := remaining / 3
	ions := remaining - 3*waters // 0, 1, or 2 single-atom ions

	rng := xrand.New(spec.Seed)
	b := newBuilder(spec, rng)

	b.buildLipidBilayer(spec.LipidCount, spec.LipidTailLen)
	b.buildProteinChains(spec.ProteinChains, spec.ChainResidues)
	if err := b.fillWater(waters, ions); err != nil {
		return nil, nil, err
	}

	sys, err := b.tb.Finish()
	if err != nil {
		return nil, nil, err
	}
	if sys.N() != spec.TargetAtoms {
		return nil, nil, fmt.Errorf("molgen: built %d atoms, want %d", sys.N(), spec.TargetAtoms)
	}
	neutralize(sys)
	st := &topology.State{Pos: b.pos, Vel: make([]vec.V3, len(b.pos))}
	if spec.Temperature > 0 {
		assignVelocities(sys, st, spec.Temperature, rng)
	}
	return sys, st, nil
}

// neutralize enforces exact charge neutrality, spreading the residual
// net charge (unpaired counter-ions, template rounding) uniformly over
// all atoms. Periodic electrostatics demands this: the Ewald/PME
// reciprocal sum drops the m=0 term on the assumption that a uniform
// background cancels the net charge, so a charged box would silently
// shift energies. The sum is compensated (Kahan) so the invariant holds
// to ~1e-12 e even for million-atom systems.
func neutralize(sys *topology.System) {
	var net, comp float64
	for _, a := range sys.Atoms {
		y := a.Charge - comp
		t := net + y
		comp = (t - net) - y
		net = t
	}
	dq := net / float64(len(sys.Atoms))
	if dq == 0 {
		return
	}
	for i := range sys.Atoms {
		sys.Atoms[i].Charge -= dq
	}
}

type builder struct {
	spec Spec
	rng  *xrand.RNG
	tb   *topology.Builder
	pos  []vec.V3
	occ  *occupancy
}

func newBuilder(spec Spec, rng *xrand.RNG) *builder {
	return &builder{
		spec: spec,
		rng:  rng,
		tb:   topology.NewBuilder(spec.Name, spec.Box),
		occ:  newOccupancy(spec.Box, 2.4),
	}
}

func (b *builder) place(p vec.V3) vec.V3 {
	p = vec.Wrap(p, b.spec.Box)
	b.pos = append(b.pos, p)
	b.occ.add(p)
	return p
}

// buildProteinChains grows self-avoiding-ish random-walk chains confined
// to a sphere at the box center. Each residue contributes the template
// N(-H)-CA(-CB)-C(=O) with backbone bonds, angles, dihedrals, and a
// planarity improper at the carbonyl.
func (b *builder) buildProteinChains(chains, residues int) {
	if chains == 0 || residues == 0 {
		return
	}
	center := b.spec.Box.Scale(0.5)
	// Confine chains to a sphere that holds them at roughly protein
	// density (~0.09 atoms/Å³ for heavy+H synthetic residues).
	nAtoms := float64(chains * residues * AtomsPerResidue)
	radius := math.Cbrt(nAtoms / 0.09 * 3 / (4 * math.Pi))
	maxR := 0.45 * math.Min(b.spec.Box.X, math.Min(b.spec.Box.Y, b.spec.Box.Z))
	if radius > maxR {
		radius = maxR
	}

	for c := 0; c < chains; c++ {
		b.tb.BeginMolecule()
		// Start at a random point inside the sphere.
		cur := center.Add(b.randInSphere(radius * 0.8))
		dir := b.randUnit()
		var prevC int32 = -1 // carbonyl C of previous residue
		var prevCA int32 = -1
		var prevN int32 = -1
		for r := 0; r < residues; r++ {
			// Backbone step direction: correlated random walk, reflected
			// back toward the center when leaving the sphere.
			dir = dir.Add(b.randUnit().Scale(0.7)).Unit()
			if cur.Sub(center).Norm() > radius {
				dir = center.Sub(cur).Unit()
			}

			step := func(l float64) vec.V3 {
				dir = dir.Add(b.randUnit().Scale(0.4)).Unit()
				cur = cur.Add(dir.Scale(l))
				return cur
			}

			n := b.tb.AddAtom(forcefield.TypeN, units.MassN, -0.47)
			pn := b.place(step(1.45))
			h := b.tb.AddAtom(forcefield.TypeH, units.MassH, 0.31)
			b.place(pn.Add(b.randUnit().Scale(1.01)))
			ca := b.tb.AddAtom(forcefield.TypeC, units.MassC, 0.07)
			b.place(step(1.45))
			cb := b.tb.AddAtom(forcefield.TypeCT, units.MassC, 0.0)
			b.place(cur.Add(b.perp(dir).Scale(1.53)))
			cc := b.tb.AddAtom(forcefield.TypeC, units.MassC, 0.51)
			pc := b.place(step(1.53))
			o := b.tb.AddAtom(forcefield.TypeO, units.MassO, -0.42)
			b.place(pc.Add(b.perp(dir).Scale(1.23)))

			b.tb.AddBond(n, h, forcefield.BondNH)
			b.tb.AddBond(n, ca, forcefield.BondCN)
			b.tb.AddBond(ca, cb, forcefield.BondCC)
			b.tb.AddBond(ca, cc, forcefield.BondCC)
			b.tb.AddBond(cc, o, forcefield.BondCO)
			b.tb.AddAngle(h, n, ca, forcefield.AngleCCN)
			b.tb.AddAngle(n, ca, cc, forcefield.AngleCCN)
			b.tb.AddAngle(cb, ca, cc, forcefield.AngleCCC)
			b.tb.AddAngle(ca, cc, o, forcefield.AngleOCN)
			b.tb.AddImproper(cc, ca, o, n, forcefield.ImproperPlanar)

			if prevC >= 0 {
				b.tb.AddBond(prevC, n, forcefield.BondCN)
				b.tb.AddAngle(prevC, n, ca, forcefield.AngleCCN)
				b.tb.AddAngle(prevCA, prevC, n, forcefield.AngleCCN)
				// Backbone torsions φ/ψ-like.
				b.tb.AddDihedral(prevCA, prevC, n, ca, forcefield.DihedralBackbone)
				if prevN >= 0 {
					b.tb.AddDihedral(prevN, prevCA, prevC, n, forcefield.DihedralBackbone)
				}
			}
			prevC, prevCA, prevN = cc, ca, n
		}
	}
}

// buildLipidBilayer places lipids in a slab centered at z = box.Z/2:
// heads on the two leaflet planes, tails pointing toward the midplane.
// This creates the dense membrane region of the ApoA-I and BC1 systems.
func (b *builder) buildLipidBilayer(count, tailLen int) {
	if count == 0 {
		return
	}
	midZ := b.spec.Box.Z / 2
	// Tails of length tailLen at 1.27 Å rise per carbon must fit in each
	// leaflet.
	leaflet := float64(tailLen)*1.27 + 2.5
	perLeaflet := (count + 1) / 2
	// Pack lipid heads on a square lattice covering the box cross-section.
	cols := int(math.Ceil(math.Sqrt(float64(perLeaflet))))
	dx := b.spec.Box.X / float64(cols)
	dy := b.spec.Box.Y / float64(cols)

	for i := 0; i < count; i++ {
		b.tb.BeginMolecule()
		top := i%2 == 0
		li := i / 2
		col, row := li%cols, li/cols
		x := (float64(col)+0.5)*dx + b.rng.Range(-0.3, 0.3)
		y := (float64(row)+0.5)*dy + b.rng.Range(-0.3, 0.3)
		zdir := -1.0 // tails grow toward midplane
		z := midZ + leaflet
		if !top {
			z = midZ - leaflet
			zdir = 1.0
		}

		p := b.tb.AddAtom(forcefield.TypeP, units.MassP, 0.4)
		hp := b.place(vec.New(x, y, z))
		hc := b.tb.AddAtom(forcefield.TypeC, units.MassC, -0.4)
		hcp := b.place(hp.Add(vec.New(0, 0, zdir*1.8)))
		b.tb.AddBond(p, hc, forcefield.BondCP)

		for tail := 0; tail < 2; tail++ {
			prev := hc
			prevPos := hcp
			off := vec.New(0.75, 0, 0)
			if tail == 1 {
				off = vec.New(-0.75, 0, 0)
			}
			var prev2, prev3 int32 = p, -1
			for k := 0; k < tailLen; k++ {
				ct := b.tb.AddAtom(forcefield.TypeCT, units.MassC, 0)
				jitter := vec.New(b.rng.Range(-0.2, 0.2), b.rng.Range(-0.2, 0.2), 0)
				prevPos = b.place(prevPos.Add(vec.New(0, 0, zdir*1.27)).Add(off.Scale(sign(k))).Add(jitter))
				b.tb.AddBond(prev, ct, forcefield.BondCTCT)
				if prev2 >= 0 {
					b.tb.AddAngle(prev2, prev, ct, forcefield.AngleCTCTCT)
				}
				if prev3 >= 0 {
					b.tb.AddDihedral(prev3, prev2, prev, ct, forcefield.DihedralTail)
				}
				prev3, prev2, prev = prev2, prev, ct
			}
		}
	}
}

func sign(k int) float64 {
	if k%2 == 0 {
		return 1
	}
	return -1
}

// fillWater places water molecules on a jittered lattice in the space not
// occupied by structured atoms, plus the given number of single-atom ions.
// The placement guarantees the exact requested count: successive passes
// relax the clearance threshold, and a final best-of-K random pass places
// any remainder (dynamics users minimize before integrating, so modestly
// tight contacts are acceptable).
func (b *builder) fillWater(waters, ions int) error {
	need := waters + ions
	if need == 0 {
		return nil
	}
	vol := b.spec.Box.X * b.spec.Box.Y * b.spec.Box.Z
	spacing := math.Cbrt(vol / float64(need+1))
	placedW, placedI := 0, 0

	placeOne := func(c vec.V3) {
		if placedW < waters {
			b.addWater(c)
			placedW++
		} else {
			// Counter-ions alternate ±1 so they pair up neutral; any
			// unpaired remainder is absorbed by the neutralize pass.
			q := 1.0
			if placedI%2 == 1 {
				q = -1
			}
			b.tb.BeginMolecule()
			b.tb.AddAtom(forcefield.TypeN, units.MassN, q)
			b.place(c)
			placedI++
		}
	}

	clearance := 2.2
	for pass := 0; pass < 8 && (placedW < waters || placedI < ions); pass++ {
		nx := max(1, int(b.spec.Box.X/spacing))
		ny := max(1, int(b.spec.Box.Y/spacing))
		nz := max(1, int(b.spec.Box.Z/spacing))
		for iz := 0; iz < nz && (placedW < waters || placedI < ions); iz++ {
			for iy := 0; iy < ny && (placedW < waters || placedI < ions); iy++ {
				for ix := 0; ix < nx && (placedW < waters || placedI < ions); ix++ {
					c := vec.New(
						(float64(ix)+0.5)*b.spec.Box.X/float64(nx),
						(float64(iy)+0.5)*b.spec.Box.Y/float64(ny),
						(float64(iz)+0.5)*b.spec.Box.Z/float64(nz),
					)
					c = c.Add(vec.New(b.rng.Range(-0.3, 0.3), b.rng.Range(-0.3, 0.3), b.rng.Range(-0.3, 0.3)))
					if b.occ.crowded(c, clearance) {
						continue
					}
					placeOne(c)
				}
			}
		}
		spacing *= 0.86
		clearance *= 0.92
	}
	// Remainder: best-of-K random placement.
	for placedW < waters || placedI < ions {
		best := vec.Zero
		bestScore := -1.0
		for try := 0; try < 24; try++ {
			c := vec.New(b.rng.Range(0, b.spec.Box.X), b.rng.Range(0, b.spec.Box.Y), b.rng.Range(0, b.spec.Box.Z))
			d := b.occ.nearest(c, 4.0)
			if d > bestScore {
				bestScore = d
				best = c
			}
		}
		placeOne(best)
	}
	return nil
}

func (b *builder) addWater(at vec.V3) {
	b.tb.BeginMolecule()
	o := b.tb.AddAtom(forcefield.TypeOW, units.MassO, -0.834)
	po := b.place(at)
	// TIP3P geometry: O-H 0.9572 Å, H-O-H 104.52°. Pick the orientation
	// (of a few trials) whose hydrogens have the most clearance from
	// already-placed atoms.
	var bestD1, bestD2 vec.V3
	bestScore := -1.0
	ang := 104.52 * math.Pi / 180
	for try := 0; try < 6; try++ {
		d1 := b.randUnit()
		perp := b.perp(d1)
		d2 := d1.Scale(math.Cos(ang)).Add(perp.Scale(math.Sin(ang)))
		s1 := b.occ.nearest(po.Add(d1.Scale(0.9572)), 3.0)
		s2 := b.occ.nearest(po.Add(d2.Scale(0.9572)), 3.0)
		if s := math.Min(s1, s2); s > bestScore {
			bestScore = s
			bestD1, bestD2 = d1, d2
		}
	}
	h1 := b.tb.AddAtom(forcefield.TypeHW, units.MassH, 0.417)
	b.place(po.Add(bestD1.Scale(0.9572)))
	h2 := b.tb.AddAtom(forcefield.TypeHW, units.MassH, 0.417)
	b.place(po.Add(bestD2.Scale(0.9572)))
	b.tb.AddBond(o, h1, forcefield.BondOWHW)
	b.tb.AddBond(o, h2, forcefield.BondOWHW)
	b.tb.AddAngle(h1, o, h2, forcefield.AngleHWOWHW)
}

func (b *builder) randUnit() vec.V3 {
	for {
		v := vec.New(b.rng.Range(-1, 1), b.rng.Range(-1, 1), b.rng.Range(-1, 1))
		n2 := v.Norm2()
		if n2 > 0.01 && n2 <= 1 {
			return v.Scale(1 / math.Sqrt(n2))
		}
	}
}

func (b *builder) randInSphere(r float64) vec.V3 {
	return b.randUnit().Scale(r * math.Cbrt(b.rng.Float64()))
}

// perp returns a unit vector perpendicular to d, rotated by a random
// azimuth.
func (b *builder) perp(d vec.V3) vec.V3 {
	ref := vec.New(0, 0, 1)
	if math.Abs(d.Z) > 0.9 {
		ref = vec.New(1, 0, 0)
	}
	u := d.Cross(ref).Unit()
	v := d.Cross(u)
	phi := b.rng.Range(0, 2*math.Pi)
	return u.Scale(math.Cos(phi)).Add(v.Scale(math.Sin(phi)))
}

// assignVelocities draws Maxwell–Boltzmann velocities at temperature T
// and removes the net momentum.
func assignVelocities(sys *topology.System, st *topology.State, T float64, rng *xrand.RNG) {
	var totP vec.V3
	var totM float64
	for i := range st.Vel {
		m := sys.Atoms[i].Mass
		sigma := math.Sqrt(units.Boltzmann * T * units.ForceToAccel / m)
		st.Vel[i] = vec.New(sigma*rng.NormFloat64(), sigma*rng.NormFloat64(), sigma*rng.NormFloat64())
		totP = totP.Add(st.Vel[i].Scale(m))
		totM += m
	}
	drift := totP.Scale(1 / totM)
	for i := range st.Vel {
		st.Vel[i] = st.Vel[i].Sub(drift)
	}
}

// occupancy is a dense grid of cells, cell Å or a little more on a side,
// holding the wrapped positions of the atoms placed so far; it keeps
// water off them.
type occupancy struct {
	box   vec.V3
	cell  float64
	dim   [3]int
	side  vec.V3     // cell edge per axis: box / dim
	cells [][]vec.V3 // indexed by flat

	// Scratch of nearest, filled by around: per axis and offset d from
	// the query's cell, index reach+d, the wrapped cell coordinate and
	// the squared slab gap; and the offsets, nearest first.
	at    [3][]int
	gap   [3][]float64
	order []int
}

func newOccupancy(box vec.V3, cell float64) *occupancy {
	o := &occupancy{box: box, cell: cell}
	for c := 0; c < 3; c++ {
		o.dim[c] = max(1, int(box.Comp(c)/cell))
	}
	o.side = vec.New(box.X/float64(o.dim[0]), box.Y/float64(o.dim[1]), box.Z/float64(o.dim[2]))
	o.cells = make([][]vec.V3, o.dim[0]*o.dim[1]*o.dim[2])
	return o
}

// index returns the cell of w, a position wrapped into the box.
func (o *occupancy) index(w vec.V3) (int, int, int) {
	ix := int(w.X / o.box.X * float64(o.dim[0]))
	iy := int(w.Y / o.box.Y * float64(o.dim[1]))
	iz := int(w.Z / o.box.Z * float64(o.dim[2]))
	return min(ix, o.dim[0]-1), min(iy, o.dim[1]-1), min(iz, o.dim[2]-1)
}

func (o *occupancy) flat(ix, iy, iz int) int {
	return (iz*o.dim[1]+iy)*o.dim[0] + ix
}

func (o *occupancy) add(p vec.V3) {
	w := vec.Wrap(p, o.box)
	k := o.flat(o.index(w))
	o.cells[k] = append(o.cells[k], w)
}

// nearest returns the distance from p to the closest stored atom, capped
// at cap (returned when nothing is closer): the minimum of cap² and every
// stored atom's squared minimum-image distance, as vec.MinImage2 computes
// it, rooted. It visits the cells within reach of p's, nearest offsets
// first, and skips a cell whose slab lower bound (see around) already
// reaches the best distance so far: none of its atoms could lower it.
func (o *occupancy) nearest(p vec.V3, cap float64) float64 {
	reach := int(cap/o.cell) + 1
	o.around(vec.Wrap(p, o.box), reach)
	best2 := cap * cap
	skip2 := best2 * (1 + 1e-9)
	for _, dz := range o.order {
		gz := o.gap[2][reach+dz]
		if gz >= skip2 {
			continue
		}
		kz := o.at[2][reach+dz] * o.dim[1]
		for _, dy := range o.order {
			gyz := gz + o.gap[1][reach+dy]
			if gyz >= skip2 {
				continue
			}
			kyz := (kz + o.at[1][reach+dy]) * o.dim[0]
			for _, dx := range o.order {
				if gyz+o.gap[0][reach+dx] >= skip2 {
					continue
				}
				for _, q := range o.cells[kyz+o.at[0][reach+dx]] {
					if d2 := vec.MinImage2(p, q, o.box); d2 < best2 {
						best2 = d2
						skip2 = best2 * (1 + 1e-9)
					}
				}
			}
		}
	}
	return math.Sqrt(best2)
}

// around fills nearest's scratch for a query at w, wrapped into the box:
// per axis c and offset d in -reach…reach, the cell coordinate of w's
// cell plus d, wrapped, and the square of a lower bound on the distance
// along c from w to any atom of that cell's image d cells away: the
// distance from w to that image's slab, less a slack of 1e-9 box
// lengths, far above the rounding of w, of the cell edges and of any
// computed displacement. nearest skips a cell only when the bound
// reaches the best squared distance times 1 + 1e-9, a margin far above
// the rounding of the bound's sum.
//
// A cell's images lie at offsets d + k·dim, and the nearer the offset,
// the nearer the slab, so the bound at a cell's nearest offset holds for
// every image, and so for the minimum-image distance. When 2·reach+1
// exceeds an axis's cell count, a cell comes round at more than one
// offset; the bound at a farther one may be too large, but the cell is
// then visited at its nearest offset too, where the bound holds.
func (o *occupancy) around(w vec.V3, reach int) {
	if n := 2*reach + 1; len(o.order) != n {
		o.order = o.order[:0]
		for d := 0; d <= reach; d++ {
			o.order = append(o.order, -d)
			if d > 0 {
				o.order = append(o.order, d)
			}
		}
		for c := 0; c < 3; c++ {
			o.at[c], o.gap[c] = make([]int, n), make([]float64, n)
		}
	}
	ix, iy, iz := o.index(w)
	for c, i := range [3]int{ix, iy, iz} {
		at, g := o.at[c], o.gap[c]
		for d := -reach; d <= reach; d++ {
			at[reach+d] = mod(i+d, o.dim[c])
		}
		x, h, slack := w.Comp(c), o.side.Comp(c), 1e-9*o.box.Comp(c)
		for d := 1; d <= reach; d++ {
			above := max(0, float64(i+d)*h-x-slack)
			below := max(0, x-float64(i-d+1)*h-slack)
			g[reach+d], g[reach-d] = above*above, below*below
		}
	}
}

// crowded reports whether any stored atom lies within dist of p. It
// looks in p's cell and the 26 around it, which hold every atom within a
// cell edge of p.
func (o *occupancy) crowded(p vec.V3, dist float64) bool {
	ix, iy, iz := o.index(vec.Wrap(p, o.box))
	var at [3][3]int
	for c, i := range [3]int{ix, iy, iz} {
		for d := -1; d <= 1; d++ {
			at[c][d+1] = mod(i+d, o.dim[c])
		}
	}
	d2 := dist * dist
	for _, kz := range at[2] {
		for _, ky := range at[1] {
			for _, kx := range at[0] {
				for _, q := range o.cells[o.flat(kx, ky, kz)] {
					if vec.MinImage2(p, q, o.box) < d2 {
						return true
					}
				}
			}
		}
	}
	return false
}

func mod(a, n int) int {
	a %= n
	if a < 0 {
		a += n
	}
	return a
}
