// Full-electrostatics support for the cluster simulation: a simulated
// parallel smooth-PME compute class. The reciprocal mesh work is
// decomposed into pencils, the standard parallel-FFT decomposition —
// a p×p grid of z-pencils (each owning a column of mesh points along z)
// and a p×p grid of x-pencils. On a reciprocal step the data flow is:
//
//	patch ──charges──▶ z-pencil ──transpose──▶ x-pencil
//	patch ◀──forces─── z-pencil ◀─untranspose──┘
//
// Patches multicast their charges to the z-pencils whose (x,y) columns
// they overlap (B-spline support widens the footprint); each z-pencil
// runs its share of the forward z-axis FFT passes and scatters transpose
// blocks to every x-pencil; each x-pencil runs the x/y passes plus the
// influence-function convolution and scatters the blocks back; the
// z-pencils finish the inverse transform, gather per-atom forces, and
// send one force message per contributing patch, which the patch counts
// toward its per-step force expectation like any other contribution.
//
// With Config.PMEMTSPeriod > 1 only steps divisible by the period are
// reciprocal steps — the impulse multiple-timestepping schedule of the
// real engines — so the pencil traffic and CPU time (trace.CatPME)
// appear only on those steps. All pencils are created migratable on
// PE 0; measurement-based load balancing is what spreads them out,
// making them visible in Result.PMEMigrations and ldb statistics.
package core

import (
	"fmt"
	"math"

	"gonamd/internal/charm"
	"gonamd/internal/trace"
)

// pmeForceMsg is a reciprocal-force contribution from a z-pencil to a
// home patch; like proxyForceMsg, combining it costs per-atom work.
type pmeForceMsg struct{ step int }

// pencilState is one PME pencil compute object. Z-pencils act twice per
// reciprocal step (forward spread+FFT, then inverse FFT+gather), so
// their arrivals are counted under 2·step+phase; x-pencils act once,
// counted under step.
type pencilState struct {
	z       bool
	ix, iy  int
	patches []int // contributing patches (z-pencils only)

	fwdWork float64 // z: spread + forward z-passes; x: x/y passes + convolution
	bwdWork float64 // z only: inverse z-passes + force gather

	need int // transpose blocks expected (p²); z charge phase uses len(patches)
	got  stepCounter
}

// pmeOn reports whether the simulation models full electrostatics.
func (s *Sim) pmeOn() bool { return s.cfg.PMEGrid > 0 }

// pmeRecipStep reports whether step is a reciprocal (mesh) step under
// the MTS schedule.
func (s *Sim) pmeRecipStep(step int) bool {
	return s.pmeOn() && step%s.cfg.PMEMTSPeriod == 0
}

// registerPMEEntries registers the three pencil entry methods.
func (s *Sim) registerPMEEntries() {
	s.ePencilCharge = s.rt.RegisterEntry("pme.charges", func(c *charm.Ctx, obj, payload any, size int) {
		zp := obj.(*pencilState)
		step := payload.(int)
		if !zp.got.arrive(2*step, len(zp.patches)) {
			return
		}
		c.Charge(zp.fwdWork, trace.CatPME)
		s.transpose(c, s.xPencilObj, s.ePencilFwd, step)
	})
	s.ePencilFwd = s.rt.RegisterEntry("pme.transpose", func(c *charm.Ctx, obj, payload any, size int) {
		xp := obj.(*pencilState)
		step := payload.(int)
		if !xp.got.arrive(step, xp.need) {
			return
		}
		c.Charge(xp.fwdWork, trace.CatPME)
		s.transpose(c, s.zPencilObj, s.ePencilBwd, step)
	})
	s.ePencilBwd = s.rt.RegisterEntry("pme.untranspose", func(c *charm.Ctx, obj, payload any, size int) {
		zp := obj.(*pencilState)
		step := payload.(int)
		if !zp.got.arrive(2*step+1, zp.need) {
			return
		}
		c.Charge(zp.bwdWork, trace.CatPME)
		for _, p := range zp.patches {
			c.Send(s.patchObj[p], s.ePatchForce, pmeForceMsg{step: step},
				24*s.patches[p].atoms, prio(step, classForce))
		}
	})
}

// transpose scatters one pencil's p² personalized blocks to the other
// pencil set — the all-to-all phase. With Config.TreeMulticast the
// blocks ride a scatter tree (relays forward combined subtree messages,
// so the pencil pays one packing instead of p² SendOverheads); otherwise
// each block is a direct point-to-point send.
func (s *Sim) transpose(c *charm.Ctx, dests []charm.ObjID, e charm.EntryID, step int) {
	if s.cfg.TreeMulticast {
		c.ScatterTree(dests, e, step, s.pmeBlockBytes, prio(step, classDeposit))
		return
	}
	for _, obj := range dests {
		c.Send(obj, e, step, s.pmeBlockBytes, prio(step, classDeposit))
	}
}

// createPencils builds the pencil objects and attaches each patch to the
// z-pencils it spreads charge onto. All pencils start on PE 0.
func (s *Sim) createPencils() error {
	k := s.cfg.PMEGrid
	if k < 4 {
		return fmt.Errorf("core: PME grid %d must be at least 4", k)
	}
	p := s.cfg.PMEPencils
	if p == 0 {
		// Auto: enough pencils to occupy the machine without making the
		// transpose all-to-all (p⁴ messages) dominate.
		p = int(math.Sqrt(float64(s.cfg.PEs)))
		if p < 2 {
			p = 2
		}
		if p > 8 {
			p = 8
		}
	}
	if p < 1 || p*p > k*k {
		return fmt.Errorf("core: %d×%d pencils for a %d³ mesh", p, p, k)
	}
	s.pmeP = p

	meshPerPencil := float64(k*k*k) / float64(p*p)
	logK := math.Log2(float64(k))
	s.pmeBlockBytes = 16 * k * k * k / (p * p * p * p) // one complex block of the transpose
	m := &s.cfg.Model

	// Patch → pencil-column attachment: a patch contributes charge to
	// every (x,y) pencil column its footprint overlaps, widened by the
	// order-4 B-spline support (4 mesh spacings).
	g := s.w.Grid
	supX := 4 * g.Box.X / float64(k)
	supY := 4 * g.Box.Y / float64(k)
	colW, colH := g.Box.X/float64(p), g.Box.Y/float64(p)
	contrib := make([][]int, p*p) // pencil (ix,iy) → contributing patches
	patchPencils := make([][]int, g.NumPatches())
	for pid := 0; pid < g.NumPatches(); pid++ {
		ix, iy, _ := g.Coords(pid)
		x0 := float64(ix)*g.Size.X - supX
		x1 := float64(ix+1)*g.Size.X + supX
		y0 := float64(iy)*g.Size.Y - supY
		y1 := float64(iy+1)*g.Size.Y + supY
		for jx := 0; jx < p; jx++ {
			if !spanOverlaps(x0, x1, float64(jx)*colW, float64(jx+1)*colW, g.Box.X) {
				continue
			}
			for jy := 0; jy < p; jy++ {
				if !spanOverlaps(y0, y1, float64(jy)*colH, float64(jy+1)*colH, g.Box.Y) {
					continue
				}
				pen := jx*p + jy
				contrib[pen] = append(contrib[pen], pid)
				patchPencils[pid] = append(patchPencils[pid], pen)
			}
		}
	}

	// Z-pencils: spread + forward z-axis FFT passes, later inverse
	// passes + gather. The spread/gather cost is the pencil's share of
	// each contributing patch's atoms.
	for jx := 0; jx < p; jx++ {
		for jy := 0; jy < p; jy++ {
			pen := jx*p + jy
			atomShare := 0.0
			for _, pid := range contrib[pen] {
				atomShare += float64(s.w.PatchAtoms[pid]) / float64(len(patchPencils[pid]))
			}
			fftPass := meshPerPencil * logK * m.PerMeshPoint
			zp := &pencilState{
				z: true, ix: jx, iy: jy,
				patches: contrib[pen],
				fwdWork: atomShare*m.PerAtomSpread + fftPass,
				bwdWork: fftPass + atomShare*m.PerAtomSpread,
				need:    p * p,
				got:     s.newCounter(),
			}
			s.zPencils = append(s.zPencils, zp)
			s.zPencilObj = append(s.zPencilObj, s.rt.CreateObj(0, zp, true))
		}
	}
	// X-pencils: the two remaining FFT axes plus the convolution.
	for jy := 0; jy < p; jy++ {
		for jz := 0; jz < p; jz++ {
			xp := &pencilState{
				ix: jy, iy: jz,
				fwdWork: meshPerPencil * (2*logK + 1) * m.PerMeshPoint,
				need:    p * p,
				got:     s.newCounter(),
			}
			s.xPencils = append(s.xPencils, xp)
			s.xPencilObj = append(s.xPencilObj, s.rt.CreateObj(0, xp, true))
		}
	}

	for pid, pens := range patchPencils {
		ps := s.patches[pid]
		for _, pen := range pens {
			ps.pencils = append(ps.pencils, s.zPencilObj[pen])
		}
	}
	return nil
}

// spanOverlaps reports whether [a0,a1] (possibly extending outside the
// box) overlaps [b0,b1] under period L.
func spanOverlaps(a0, a1, b0, b1, L float64) bool {
	for _, shift := range [3]float64{-L, 0, L} {
		if a0+shift < b1 && a1+shift > b0 {
			return true
		}
	}
	return false
}
