package forcefield

import "gonamd/internal/spatial"

// Tabulated cluster kernel: identical two-phase sweep, staging
// discipline, and reduction order to NonbondedCluster (see cluster.go —
// staged i-operands, constant-length-8 j-view re-slices, the shared
// pairBuf filter), and the identical van der Waals arithmetic through
// the shared ljSwitched — so its evdw is bitwise the analytic kernel's —
// but the electrostatic term comes from an InteractionTable lookup: no
// Sqrt, no Erfc/Exp. It is bitwise deterministic for a fixed list and
// evaluation order; its electrostatics carry the table's documented
// accuracy envelope instead of bitwise equality (see DESIGN.md
// "Nonbonded pipeline").

// NonbondedClusterTab evaluates the listed i-clusters with the
// electrostatic term from the interaction table, accumulating slot
// forces into fx/fy/fz (caller-zeroed, capacity ≥ Slots()+8 like
// NonbondedCluster) and returning the summed vdW energy, electrostatic
// energy, and pair virial. tab must have been built from p (after any
// WithEwald swap); a mismatch panics. It walks the list as built
// (SweepOuter).
func (p *Params) NonbondedClusterTab(tab *InteractionTable, l *spatial.ClusterList, d *ClusterData, ics []int32, fx, fy, fz []float64) (evdw, eelec, virial float64) {
	return p.nonbondedClusterTab(tab, l, d, ics, SweepOuter, fx, fy, fz)
}

func (p *Params) nonbondedClusterTab(tab *InteractionTable, l *spatial.ClusterList, d *ClusterData, ics []int32, sweep ClusterSweep, fx, fy, fz []float64) (evdw, eelec, virial float64) {
	tab.checkParams(p)
	rc2 := tab.Cutoff2
	prune2 := l.PruneDist * l.PruneDist
	lj := p.lj()
	invH, recs := tab.InvSpacing, tab.recs
	pair, pair14 := p.pair, p.pair14
	nt := p.ntypes
	scale14 := p.Scale14Elec
	bx, by, bz := l.Box.X, l.Box.Y, l.Box.Z
	M, N := l.M, l.N
	xs, ys, zs := d.X, d.Y, d.Z
	typ, qs, qas := d.Typ, d.Q, d.QA
	abOf := pairSlotTable(M, N)
	var buf pairBuf

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

				v, dvdx := ljPow(pp.A, pp.B, 1/x)
				ev, dEdxVdw := lj.switched(x, v, dvdx)
				ee, dEdxElec := tabElec(recs, invH, qq, x)

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
