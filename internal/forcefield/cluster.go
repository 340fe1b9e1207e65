package forcefield

import (
	"math"
	"math/bits"

	"gonamd/internal/spatial"
	"gonamd/internal/units"
	"gonamd/internal/vec"
)

// Cluster kernels: the nonbonded inner loop over spatial.ClusterList
// M×N cluster pairs. Per atom pair the analytic kernel performs exactly
// the same operations as the scalar Nonbonded — which stays the
// reference, and the two are bitwise identical pairwise — but the
// cluster layout strips everything else: displacements come from
// slot-indexed position arrays with a branchy minimum-image wrap (no
// per-pair division/rounding), exclusions are pre-resolved into the
// entry masks (no per-pair Classify), i-cluster operands and force
// accumulators live in fixed-size locals across a whole entry run, and
// forces accumulate per cluster before touching the slot arrays.
//
// Each list entry is swept in two phases (see pairBuf): a filter that
// walks the entry's mask bits and keeps the candidates inside the cutoff
// without branching on the outcome, then a straight-line pair-math loop
// over the survivors. The filter is shared by both production kernels;
// they differ only in the pair math.
//
// Both production kernels walk one of three views of the list
// (ClusterSweep): the entries as built, the inner view of a dual pair
// list (the entries' Inner masks), or the entries as built while
// rewriting the inner view of the swept i-clusters from the r² the
// filter computes anyway. The inner view keeps every pair within
// PruneDist at the prune, in list order; while no atom has moved half of
// PruneDist − cutoff since, it holds every pair the filter would pass,
// in the same order, so all three sweeps produce the same bits.

// ClusterData holds the slot-indexed SoA operands of the cluster
// kernels for one ClusterList: wrapped positions, atom types and
// charges. Padding slots hold zeros; the entry masks guarantee they are
// never evaluated.
type ClusterData struct {
	X, Y, Z []float64
	Typ     []int32
	Q       []float64 // raw charge (reference-kernel operand)
	QA      []float64 // units.Coulomb · Q, hoisted for the optimized kernel
}

// LoadStatic fills the per-slot type and charge tables from the atom
// arrays. Call once per list rebuild (slot assignment changes), after
// LoadPositions-independent data changes.
func (d *ClusterData) LoadStatic(l *spatial.ClusterList, types []int32, charges []float64) {
	n := l.Slots()
	d.Typ = resizeI32f(d.Typ, n)
	d.Q = resizeF64(d.Q, n)
	d.QA = resizeF64(d.QA, n)
	for s := 0; s < n; s++ {
		a := l.Atom[s]
		if a < 0 {
			d.Typ[s], d.Q[s], d.QA[s] = 0, 0, 0
			continue
		}
		q := charges[a]
		d.Typ[s] = types[a]
		d.Q[s] = q
		d.QA[s] = units.Coulomb * q
	}
}

// LoadPositions refreshes the slot position arrays from the atom
// positions, wrapped into the primary box (the kernels' branchy minimum
// image requires in-box coordinates). Call every evaluation.
func (d *ClusterData) LoadPositions(l *spatial.ClusterList, pos []vec.V3) {
	n := l.Slots()
	d.X = resizeF64(d.X, n)
	d.Y = resizeF64(d.Y, n)
	d.Z = resizeF64(d.Z, n)
	for s := 0; s < n; s++ {
		a := l.Atom[s]
		if a < 0 {
			d.X[s], d.Y[s], d.Z[s] = 0, 0, 0
			continue
		}
		w := vec.Wrap(pos[a], l.Box)
		d.X[s], d.Y[s], d.Z[s] = w.X, w.Y, w.Z
	}
}

// ClusterKernel is the one place an engine's cluster kernel is chosen,
// and the choice follows the electrostatics the parameter set carries:
// under the Ewald real-space term (EwaldBeta > 0) the erfc/exp pair
// comes from a 128 KiB table at the default spacing (Lennard-Jones stays
// analytic either way); shifted-cutoff Coulomb has no transcendental to
// remove and stays analytic, bitwise the scalar reference. The zero
// value is the analytic kernel.
type ClusterKernel struct {
	tab *InteractionTable
	ref bool
}

// ClusterKernel returns the kernel selection for the parameter set,
// building the interaction table when the set is in Ewald mode. Call it
// again after WithEwald swaps the electrostatics.
func (p *Params) ClusterKernel() (ClusterKernel, error) {
	if p.EwaldBeta == 0 {
		return ClusterKernel{}, nil
	}
	tab, err := p.BuildInteractionTable(0)
	return ClusterKernel{tab: tab}, err
}

// Tabulated reports whether the production kernel is the tabulated one.
func (k ClusterKernel) Tabulated() bool { return k.tab != nil }

// UseReference switches evaluation to NonbondedClusterRef, the analytic
// scalar replay of the same list walk — the oracle the conformance tests
// compare the production kernel with through a whole engine: bitwise
// for NonbondedCluster; for NonbondedClusterTab bitwise in the van der
// Waals energy and within the table's h³ bound in the electrostatics.
func (k *ClusterKernel) UseReference(on bool) { k.ref = on }

// ClusterSweep names the view of a ClusterList a production cluster
// kernel walks. SweepInner and SweepPrune need a list with an inner view
// (PruneDist > 0).
type ClusterSweep uint8

const (
	// SweepOuter walks every listed entry: the list as built.
	SweepOuter ClusterSweep = iota
	// SweepInner walks the inner view of the last prune.
	SweepInner
	// SweepPrune walks every listed entry, as SweepOuter does, and
	// rewrites the swept i-clusters' inner view at the list's PruneDist
	// from the r² of the current positions.
	SweepPrune
)

// Eval runs the selected kernel over the listed i-clusters; the
// arguments and results are NonbondedCluster's, and sweep picks the view
// the production kernels walk. The reference kernel always walks the
// list as built, and never prunes.
func (k ClusterKernel) Eval(p *Params, l *spatial.ClusterList, d *ClusterData, ics []int32, sweep ClusterSweep, fx, fy, fz []float64) (evdw, eelec, virial float64) {
	switch {
	case k.ref:
		return p.NonbondedClusterRef(l, d, ics, fx, fy, fz)
	case k.tab != nil:
		return p.nonbondedClusterTab(k.tab, l, d, ics, sweep, fx, fy, fz)
	default:
		return p.nonbondedCluster(l, d, ics, sweep, fx, fy, fz)
	}
}

// Reference reports whether evaluation runs the reference kernel.
func (k ClusterKernel) Reference() bool { return k.ref }

// NonbondedCluster evaluates the listed i-clusters (ics, in order),
// accumulating slot forces into fx/fy/fz (indexed like d, caller-zeroed)
// and returning the summed van der Waals energy,
// electrostatic energy, and pair virial Σ f·d. Per pair it is bitwise
// identical to Nonbonded. It walks the list as built (SweepOuter).
//
// fx/fy/fz must be allocated with capacity ≥ Slots()+8 (the engines'
// slot-force allocators and the ClusterData resize helpers guarantee
// this): the kernel reads and writes a cluster's slot run through
// constant-length-8 re-slices so the pair loop carries no bounds checks.
func (p *Params) NonbondedCluster(l *spatial.ClusterList, d *ClusterData, ics []int32, fx, fy, fz []float64) (evdw, eelec, virial float64) {
	return p.nonbondedCluster(l, d, ics, SweepOuter, fx, fy, fz)
}

func (p *Params) nonbondedCluster(l *spatial.ClusterList, d *ClusterData, ics []int32, sweep ClusterSweep, fx, fy, fz []float64) (evdw, eelec, virial float64) {
	rc2 := p.Cutoff * p.Cutoff
	prune2 := l.PruneDist * l.PruneDist
	lj := p.lj()
	invRc2 := 1 / rc2
	pair, pair14 := p.pair, p.pair14
	nt := p.ntypes
	scale14 := p.Scale14Elec
	beta := p.EwaldBeta
	invSqrtPiBeta := beta / math.SqrtPi
	bx, by, bz := l.Box.X, l.Box.Y, l.Box.Z
	M, N := l.M, l.N
	xs, ys, zs := d.X, d.Y, d.Z
	typ, qs, qas := d.Typ, d.Q, d.QA
	abOf := pairSlotTable(M, N)
	var buf pairBuf

	// The i-cluster operands are staged once per cluster into fixed-size
	// locals indexed with `& 7`; the j-cluster is accessed through
	// constant-length-8 re-slices of the slot arrays taken once per entry
	// (legal because every slot array is allocated with capacity ≥
	// slots+8). Both shapes let the compiler prove every pair-loop index
	// in bounds and drop the checks; j-forces accumulate straight into
	// fx/fy/fz through the same views, so there is no per-entry staging
	// copy or flush on the j side.
	var xi, yi, zi, qai [8]float64
	var ti [8]int32
	var fxi, fyi, fzi [8]float64

	for _, ic32 := range ics {
		ic := int(ic32)
		lo, hi := l.EntryOff[ic], l.EntryOff[ic+1]
		if lo == hi {
			continue
		}
		entries := l.Entries[lo:hi]
		iBase := ic * M
		for a := 0; a < M; a++ {
			s := iBase + a
			xi[a&7], yi[a&7], zi[a&7] = xs[s], ys[s], zs[s]
			ti[a&7], qai[a&7] = typ[s], qas[s]
			fxi[a&7], fyi[a&7], fzi[a&7] = 0, 0, 0
		}
		for k, e := range entries {
			mask, modMask := e.Mask, e.Mod
			if sweep == SweepInner {
				if mask = uint64(e.Inner); mask == 0 {
					continue
				}
			}
			jBase := int(e.J) * N
			xj := (*[8]float64)(xs[jBase:][:8])
			yj := (*[8]float64)(ys[jBase:][:8])
			zj := (*[8]float64)(zs[jBase:][:8])
			tj := typ[jBase:][:8]
			qj := qs[jBase:][:8]
			fxj := fx[jBase:][:8]
			fyj := fy[jBase:][:8]
			fzj := fz[jBase:][:8]
			var n int
			if sweep == SweepPrune {
				var keep uint64
				n, keep = buf.gatherPrune(mask, &abOf, &xi, &yi, &zi, xj, yj, zj, bx, by, bz, rc2, prune2)
				entries[k].Inner = uint32(keep)
			} else {
				n = buf.gather(mask, &abOf, &xi, &yi, &zi, xj, yj, zj, bx, by, bz, rc2)
			}

			// Row partials: zeroed per entry and folded into fxi at
			// entry end, so every i-force sees the partial sums of a
			// row-by-row walk.
			var pfx, pfy, pfz [8]float64
			for k := 0; k < n; k++ {
				x := buf.x[k&63]
				if x == 0 {
					continue
				}
				ab := uint(buf.ab[k&63])
				a, b := ab>>3&7, ab&7
				dx, dy, dz := buf.dx[k&63], buf.dy[k&63], buf.dz[k&63]

				qq := qai[a] * qj[b]
				rowBase := int(ti[a]) * nt
				var pp pairParam
				if modMask>>(a*uint(N)+b)&1 != 0 {
					pp = pair14[rowBase+int(tj[b])]
					qq *= scale14
				} else {
					pp = pair[rowBase+int(tj[b])]
				}

				invX := 1 / x
				v, dvdx := ljPow(pp.A, pp.B, invX)
				ev, dEdxVdw := lj.switched(x, v, dvdx)
				r := math.Sqrt(x)
				invR := r * invX
				var ee, dEdxElec float64
				if beta > 0 {
					ee, dEdxElec = elecEwaldReal(qq, r, invR, invX, beta, invSqrtPiBeta)
				} else {
					ee, dEdxElec = elecShiftedCoulomb(qq, invR, invX, x, invRc2)
				}

				fOverR := -2 * (dEdxVdw + dEdxElec)
				fpx := fOverR * dx
				fpy := fOverR * dy
				fpz := fOverR * dz
				pfx[a] += fpx
				pfy[a] += fpy
				pfz[a] += fpz
				fxj[b] -= fpx
				fyj[b] -= fpy
				fzj[b] -= fpz

				evdw += ev
				eelec += ee
				virial += fOverR * x
			}
			for a := 0; a < M; a++ {
				fxi[a&7] += pfx[a&7]
				fyi[a&7] += pfy[a&7]
				fzi[a&7] += pfz[a&7]
			}
		}
		for a := 0; a < M; a++ {
			s := iBase + a
			fx[s] += fxi[a&7]
			fy[s] += fyi[a&7]
			fz[s] += fzi[a&7]
		}
	}
	return evdw, eelec, virial
}

// pairBuf is the candidate buffer of one list entry: the two-phase
// sweep's hand-off between the cutoff filter and the pair math. At most
// M·N ≤ 64 candidates; ab packs the pair's slots as i-slot<<3 | j-slot.
// It lives on the kernel's stack (~2 KB).
type pairBuf struct {
	ab            [64]uint8
	dx, dy, dz, x [64]float64
}

// deBruijn64 maps an isolated bit 1<<t to a distinct 6-bit hash
// (1<<t · deBruijn64) >> 58, the sequence math/bits falls back to.
const deBruijn64 = 0x03f79d71b4ca8b09

// pairSlotTable returns the filter's lookup from a mask bit's de Bruijn
// hash to the packed slots (a<<3 | b) of bit t = a·N + b.
func pairSlotTable(m, n int) (tab [64]uint8) {
	for t := 0; t < m*n; t++ {
		tab[uint64(1)<<uint(t)*deBruijn64>>58] = uint8(t/n<<3 | t%n)
	}
	return tab
}

// gather is the filter phase: it walks the set bits of one entry's mask
// in ascending order (row-major over the M×N tile, the order the
// reference walks), computes each candidate's minimum-image displacement
// and r² with the reference's arithmetic, stores it unconditionally and
// keeps it only if r² < rc2 — by advancing the write index with the sign
// bit of r² − rc2 (r² == rc2 gives +0: rejected), so the cutoff decision
// never steers a branch. It returns the number of survivors, which sit
// in buf[0:n] in walk order.
//
// The bit index comes from a de Bruijn hash, not bits.TrailingZeros64:
// BSF carries a dependency on its destination register, and when the
// register allocator hands it the one that last held the sign bit — the
// end of the load → subtract → multiply chain — every iteration waits
// for the previous one (measured: 12.8 → 19 ns per candidate).
func (buf *pairBuf) gather(mask uint64, abOf *[64]uint8, xi, yi, zi, xj, yj, zj *[8]float64, bx, by, bz, rc2 float64) int {
	hx, hy, hz := bx/2, by/2, bz/2
	nhx, nhy, nhz := -hx, -hy, -hz // named: written -hx in the loop, the negation is redone per candidate
	// Dereference every operand once here: the nil checks then dominate
	// the loop and the compiler drops the eight it would repeat per bit.
	_, _, _, _, _, _, _, _ = *abOf, *xi, *yi, *zi, *xj, *yj, *zj, *buf
	n := 0
	for m := mask; m != 0; m &= m - 1 {
		ab := uint(abOf[(m&-m)*deBruijn64>>58])
		a, b := ab>>3&7, ab&7
		dx := xi[a] - xj[b]
		if dx > hx {
			dx -= bx
		} else if dx < nhx {
			dx += bx
		}
		dy := yi[a] - yj[b]
		if dy > hy {
			dy -= by
		} else if dy < nhy {
			dy += by
		}
		dz := zi[a] - zj[b]
		if dz > hz {
			dz -= bz
		} else if dz < nhz {
			dz += bz
		}
		x := dx*dx + dy*dy + dz*dz
		k := n & 63
		buf.ab[k], buf.dx[k], buf.dy[k], buf.dz[k], buf.x[k] = uint8(ab), dx, dy, dz, x
		n += int(math.Float64bits(x-rc2) >> 63)
	}
	return n
}

// gatherPrune is gather that also returns the entry's mask cut to the
// candidates with r² < prune2 — the entry's inner-view mask at these
// positions, from the same r² and, like the cutoff test, without a
// branch on the outcome (r² == prune2 is dropped). It is gather's loop
// with one more line; the plain sweeps keep gather, which is the
// filter's hot path.
func (buf *pairBuf) gatherPrune(mask uint64, abOf *[64]uint8, xi, yi, zi, xj, yj, zj *[8]float64, bx, by, bz, rc2, prune2 float64) (int, uint64) {
	hx, hy, hz := bx/2, by/2, bz/2
	nhx, nhy, nhz := -hx, -hy, -hz
	_, _, _, _, _, _, _, _ = *abOf, *xi, *yi, *zi, *xj, *yj, *zj, *buf
	n := 0
	var keep uint64
	for m := mask; m != 0; m &= m - 1 {
		bit := m & -m
		ab := uint(abOf[bit*deBruijn64>>58])
		a, b := ab>>3&7, ab&7
		dx := xi[a] - xj[b]
		if dx > hx {
			dx -= bx
		} else if dx < nhx {
			dx += bx
		}
		dy := yi[a] - yj[b]
		if dy > hy {
			dy -= by
		} else if dy < nhy {
			dy += by
		}
		dz := zi[a] - zj[b]
		if dz > hz {
			dz -= bz
		} else if dz < nhz {
			dz += bz
		}
		x := dx*dx + dy*dy + dz*dz
		k := n & 63
		buf.ab[k], buf.dx[k], buf.dy[k], buf.dz[k], buf.x[k] = uint8(ab), dx, dy, dz, x
		n += int(math.Float64bits(x-rc2) >> 63)
		keep |= bit & -(math.Float64bits(x-prune2) >> 63)
	}
	return n, keep
}

// NonbondedClusterRef is the differential-testing reference for
// NonbondedCluster: it walks the identical entry/mask/accumulation
// structure but evaluates every pair by calling the scalar Nonbonded
// kernel (with the identical branchy minimum-image displacement and
// identical skip guard). Bitwise equality of the two evaluators proves
// the optimized kernel's hoisting and operand layout change nothing.
func (p *Params) NonbondedClusterRef(l *spatial.ClusterList, d *ClusterData, ics []int32, fx, fy, fz []float64) (evdw, eelec, virial float64) {
	rc2 := p.Cutoff * p.Cutoff
	bx, by, bz := l.Box.X, l.Box.Y, l.Box.Z
	hx, hy, hz := bx/2, by/2, bz/2
	M, N := l.M, l.N
	xs, ys, zs := d.X, d.Y, d.Z
	typ, qs := d.Typ, d.Q

	var xi, yi, zi, qi [8]float64
	var ti [8]int32
	var fxi, fyi, fzi [8]float64

	for _, ic32 := range ics {
		ic := int(ic32)
		lo, hi := l.EntryOff[ic], l.EntryOff[ic+1]
		if lo == hi {
			continue
		}
		iBase := ic * M
		for a := 0; a < M; a++ {
			s := iBase + a
			xi[a], yi[a], zi[a] = xs[s], ys[s], zs[s]
			ti[a], qi[a] = typ[s], qs[s]
			fxi[a], fyi[a], fzi[a] = 0, 0, 0
		}
		for _, e := range l.Entries[lo:hi] {
			jBase := int(e.J) * N
			mask, modMask := e.Mask, e.Mod
			for a := 0; a < M; a++ {
				row := (mask >> uint(a*N)) & (1<<uint(N) - 1)
				if row == 0 {
					continue
				}
				var fxa, fya, fza float64
				modRow := (modMask >> uint(a*N)) & (1<<uint(N) - 1)
				for bitset := row; bitset != 0; bitset &= bitset - 1 {
					b := bits.TrailingZeros64(bitset)
					s := jBase + b
					dx := xi[a] - xs[s]
					if dx > hx {
						dx -= bx
					} else if dx < -hx {
						dx += bx
					}
					dy := yi[a] - ys[s]
					if dy > hy {
						dy -= by
					} else if dy < -hy {
						dy += by
					}
					dz := zi[a] - zs[s]
					if dz > hz {
						dz -= bz
					} else if dz < -hz {
						dz += bz
					}
					x := dx*dx + dy*dy + dz*dz
					if x >= rc2 || x == 0 {
						continue
					}
					ev, ee, fOverR := p.Nonbonded(ti[a], typ[s], qi[a], qs[s], x, modRow&(1<<uint(b)) != 0)
					fpx := fOverR * dx
					fpy := fOverR * dy
					fpz := fOverR * dz
					fxa += fpx
					fya += fpy
					fza += fpz
					fx[s] -= fpx
					fy[s] -= fpy
					fz[s] -= fpz
					evdw += ev
					eelec += ee
					virial += fOverR * x
				}
				fxi[a] += fxa
				fyi[a] += fya
				fzi[a] += fza
			}
		}
		for a := 0; a < M; a++ {
			s := iBase + a
			fx[s] += fxi[a]
			fy[s] += fyi[a]
			fz[s] += fzi[a]
		}
	}
	return evdw, eelec, virial
}

// The resize helpers guarantee capacity ≥ n+8 so the kernels can take
// fixed 8-capacity re-slices of a cluster's slot run (see the tile
// subslice comment in NonbondedCluster).
func resizeF64(s []float64, n int) []float64 {
	if cap(s) < n+8 {
		return make([]float64, n, n+n/8+8)
	}
	return s[:n]
}

func resizeI32f(s []int32, n int) []int32 {
	if cap(s) < n+8 {
		return make([]int32, n, n+n/8+8)
	}
	return s[:n]
}
