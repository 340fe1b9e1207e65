// Package topology represents the static structure of a biomolecular
// system: atoms with masses and charges, the covalent bond network (2-body
// bonds, 3-body angles, 4-body dihedrals and impropers), and the nonbonded
// exclusion lists derived from that network.
//
// Following the conventions of CHARMM-style force fields (and NAMD),
// atom pairs connected by one or two bonds (1-2 and 1-3 pairs) are fully
// excluded from nonbonded interactions, while pairs connected by three
// bonds (1-4 pairs) interact with scaled parameters.
package topology

import (
	"fmt"
	"math"
	"sort"

	"gonamd/internal/vec"
)

// Atom is one particle in the system.
type Atom struct {
	Type     int32   // index into the force field's atom-type table
	Mass     float64 // amu
	Charge   float64 // elementary charges
	Molecule int32   // molecule id, for diagnostics and water detection
}

// Bond is a 2-body bonded term between atoms I and J.
type Bond struct {
	I, J int32
	Type int32 // index into the force field's bond-type table
}

// Angle is a 3-body bonded term; J is the central atom.
type Angle struct {
	I, J, K int32
	Type    int32
}

// Dihedral is a 4-body torsion term around the J-K axis.
type Dihedral struct {
	I, J, K, L int32
	Type       int32
}

// Improper is a 4-body out-of-plane term; I is the central atom.
type Improper struct {
	I, J, K, L int32
	Type       int32
}

// System is the static topology of a molecular system plus its periodic
// box. Positions and velocities live in State; System does not change
// during a simulation.
type System struct {
	Name      string
	Atoms     []Atom
	Bonds     []Bond
	Angles    []Angle
	Dihedrals []Dihedral
	Impropers []Improper
	Box       vec.V3 // periodic box lengths, Å

	// Exclusions, built by BuildExclusions:
	// excl[i] lists j > i fully excluded (1-2 and 1-3 pairs);
	// excl14[i] lists j > i interacting with scaled (modified) parameters.
	excl   [][]int32
	excl14 [][]int32
}

// State holds the dynamic per-atom data of a simulation.
type State struct {
	Pos []vec.V3 // Å
	Vel []vec.V3 // Å/fs
}

// NewState returns a zeroed state sized for sys.
func NewState(n int) *State {
	return &State{Pos: make([]vec.V3, n), Vel: make([]vec.V3, n)}
}

// Clone returns a deep copy of the state.
func (s *State) Clone() *State {
	c := NewState(len(s.Pos))
	copy(c.Pos, s.Pos)
	copy(c.Vel, s.Vel)
	return c
}

// N returns the number of atoms.
func (s *System) N() int { return len(s.Atoms) }

// NumBondedTerms returns the total count of bonded interaction terms.
func (s *System) NumBondedTerms() int {
	return len(s.Bonds) + len(s.Angles) + len(s.Dihedrals) + len(s.Impropers)
}

// BuildExclusions computes the 1-2/1-3 full-exclusion lists and the 1-4
// modified-pair lists from the bond network. It must be called after all
// bonds are added and before nonbonded evaluation. Pairs that are both
// 1-4 and (via another path) 1-2 or 1-3 are fully excluded.
func (s *System) BuildExclusions() {
	n := s.N()
	adj := make([][]int32, n)
	for _, b := range s.Bonds {
		adj[b.I] = append(adj[b.I], b.J)
		adj[b.J] = append(adj[b.J], b.I)
	}

	s.excl = make([][]int32, n)
	s.excl14 = make([][]int32, n)
	full := make(map[int64]bool) // canonical key i<j
	onefour := make(map[int64]bool)

	key := func(i, j int32) int64 {
		if i > j {
			i, j = j, i
		}
		return int64(i)<<32 | int64(j)
	}

	// 1-2 pairs.
	for _, b := range s.Bonds {
		full[key(b.I, b.J)] = true
	}
	// 1-3 pairs: neighbors of neighbors.
	for i := int32(0); i < int32(n); i++ {
		for _, j := range adj[i] {
			for _, k := range adj[j] {
				if k != i {
					full[key(i, k)] = true
				}
			}
		}
	}
	// 1-4 pairs: three bonds away, unless already 1-2/1-3.
	for i := int32(0); i < int32(n); i++ {
		for _, j := range adj[i] {
			for _, k := range adj[j] {
				if k == i {
					continue
				}
				for _, l := range adj[k] {
					if l == i || l == j {
						continue
					}
					kk := key(i, l)
					if !full[kk] {
						onefour[kk] = true
					}
				}
			}
		}
	}

	for kk := range full {
		i, j := int32(kk>>32), int32(kk&0xffffffff)
		s.excl[i] = append(s.excl[i], j)
	}
	for kk := range onefour {
		if full[kk] {
			continue
		}
		i, j := int32(kk>>32), int32(kk&0xffffffff)
		s.excl14[i] = append(s.excl14[i], j)
	}
	for i := 0; i < n; i++ {
		sort.Slice(s.excl[i], func(a, b int) bool { return s.excl[i][a] < s.excl[i][b] })
		sort.Slice(s.excl14[i], func(a, b int) bool { return s.excl14[i][a] < s.excl14[i][b] })
	}
}

// PairKind classifies the nonbonded relationship of an atom pair.
type PairKind uint8

const (
	PairNormal   PairKind = iota // full nonbonded interaction
	PairExcluded                 // 1-2 or 1-3: no nonbonded interaction
	PairModified                 // 1-4: scaled nonbonded interaction
)

// Classify reports how the nonbonded interaction between atoms i and j
// must be treated. BuildExclusions must have been called.
func (s *System) Classify(i, j int32) PairKind {
	if i > j {
		i, j = j, i
	}
	if containsSorted(s.excl[i], j) {
		return PairExcluded
	}
	if containsSorted(s.excl14[i], j) {
		return PairModified
	}
	return PairNormal
}

// ExclusionsBuilt reports whether BuildExclusions has run.
func (s *System) ExclusionsBuilt() bool { return s.excl != nil }

// NumExclusions returns the count of fully excluded and modified pairs.
func (s *System) NumExclusions() (full, modified int) {
	for i := range s.excl {
		full += len(s.excl[i])
	}
	for i := range s.excl14 {
		modified += len(s.excl14[i])
	}
	return
}

// ForEachExcludedPair calls fn once for every excluded or modified (1-4)
// pair, with i < j, in deterministic order (ascending i, then ascending
// j). Ewald-based electrostatics needs this enumeration: the reciprocal
// sum includes every pair, so excluded and scaled pairs require explicit
// correction terms.
func (s *System) ForEachExcludedPair(fn func(i, j int32, modified bool)) {
	for i := range s.excl {
		for _, j := range s.excl[i] {
			fn(int32(i), j, false)
		}
	}
	for i := range s.excl14 {
		for _, j := range s.excl14[i] {
			fn(int32(i), j, true)
		}
	}
}

func containsSorted(xs []int32, v int32) bool {
	lo, hi := 0, len(xs)
	for lo < hi {
		mid := (lo + hi) / 2
		if xs[mid] < v {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo < len(xs) && xs[lo] == v
}

// Validate checks structural invariants: all indices in range, no
// self-bonds, finite positive masses, finite charges, a finite positive
// box. It returns the first problem found, or nil.
func (s *System) Validate() error {
	n := int32(s.N())
	finitePos := func(x float64) bool { return x > 0 && x <= math.MaxFloat64 } // false for NaN
	if !finitePos(s.Box.X) || !finitePos(s.Box.Y) || !finitePos(s.Box.Z) {
		return fmt.Errorf("topology: box %v is not finite and positive", s.Box)
	}
	for i, a := range s.Atoms {
		if !finitePos(a.Mass) {
			return fmt.Errorf("topology: atom %d has mass %g; want finite and positive", i, a.Mass)
		}
		if math.IsNaN(a.Charge) || math.IsInf(a.Charge, 0) {
			return fmt.Errorf("topology: atom %d has non-finite charge %g", i, a.Charge)
		}
	}
	in := func(i int32) bool { return i >= 0 && i < n }
	for idx, b := range s.Bonds {
		if !in(b.I) || !in(b.J) {
			return fmt.Errorf("topology: bond %d index out of range: %+v", idx, b)
		}
		if b.I == b.J {
			return fmt.Errorf("topology: bond %d is a self-bond on atom %d", idx, b.I)
		}
	}
	for idx, a := range s.Angles {
		if !in(a.I) || !in(a.J) || !in(a.K) {
			return fmt.Errorf("topology: angle %d index out of range: %+v", idx, a)
		}
		if a.I == a.J || a.J == a.K || a.I == a.K {
			return fmt.Errorf("topology: angle %d has repeated atoms: %+v", idx, a)
		}
	}
	for idx, d := range s.Dihedrals {
		if !in(d.I) || !in(d.J) || !in(d.K) || !in(d.L) {
			return fmt.Errorf("topology: dihedral %d index out of range: %+v", idx, d)
		}
	}
	for idx, d := range s.Impropers {
		if !in(d.I) || !in(d.J) || !in(d.K) || !in(d.L) {
			return fmt.Errorf("topology: improper %d index out of range: %+v", idx, d)
		}
	}
	seen := make(map[int64]bool, len(s.Bonds))
	for idx, b := range s.Bonds {
		i, j := b.I, b.J
		if i > j {
			i, j = j, i
		}
		k := int64(i)<<32 | int64(j)
		if seen[k] {
			return fmt.Errorf("topology: duplicate bond %d between atoms %d and %d", idx, i, j)
		}
		seen[k] = true
	}
	return nil
}

// Builder incrementally assembles a System, offsetting atom indices so
// whole molecules can be appended independently.
type Builder struct {
	sys    *System
	curMol int32
}

// NewBuilder returns a Builder for a system with the given box.
func NewBuilder(name string, box vec.V3) *Builder {
	return &Builder{sys: &System{Name: name, Box: box}, curMol: -1}
}

// BeginMolecule starts a new molecule; subsequent atoms belong to it.
// It returns the index the next atom will receive.
func (b *Builder) BeginMolecule() int32 {
	b.curMol++
	return int32(len(b.sys.Atoms))
}

// AddAtom appends an atom to the current molecule and returns its index.
func (b *Builder) AddAtom(typ int32, mass, charge float64) int32 {
	b.sys.Atoms = append(b.sys.Atoms, Atom{Type: typ, Mass: mass, Charge: charge, Molecule: b.curMol})
	return int32(len(b.sys.Atoms) - 1)
}

// AddBond appends a bond term.
func (b *Builder) AddBond(i, j, typ int32) {
	b.sys.Bonds = append(b.sys.Bonds, Bond{I: i, J: j, Type: typ})
}

// AddAngle appends an angle term (j central).
func (b *Builder) AddAngle(i, j, k, typ int32) {
	b.sys.Angles = append(b.sys.Angles, Angle{I: i, J: j, K: k, Type: typ})
}

// AddDihedral appends a dihedral term.
func (b *Builder) AddDihedral(i, j, k, l, typ int32) {
	b.sys.Dihedrals = append(b.sys.Dihedrals, Dihedral{I: i, J: j, K: k, L: l, Type: typ})
}

// AddImproper appends an improper term.
func (b *Builder) AddImproper(i, j, k, l, typ int32) {
	b.sys.Impropers = append(b.sys.Impropers, Improper{I: i, J: j, K: k, L: l, Type: typ})
}

// Finish builds exclusions, validates, and returns the completed system.
func (b *Builder) Finish() (*System, error) {
	b.sys.BuildExclusions()
	if err := b.sys.Validate(); err != nil {
		return nil, err
	}
	return b.sys, nil
}
