package forcefield

import (
	"math"
	"testing"

	"gonamd/internal/xrand"
)

// TestElecHelpersBitwiseIdentity pins the electrostatics hoist as an
// identity refactor: elecEwaldReal and elecShiftedCoulomb must reproduce
// the pre-hoist inline expressions (kept verbatim below) bit for bit
// over a wide sweep of operand magnitudes. If the helpers are ever
// "simplified" algebraically, this fails and the scalar and cluster
// kernels would silently stop being pairwise bitwise interchangeable.
func TestElecHelpersBitwiseIdentity(t *testing.T) {
	rng := xrand.New(99)
	for n := 0; n < 20000; n++ {
		x := rng.Range(1e-4, 150)
		qq := rng.Range(-400, 400)
		beta := rng.Range(0.05, 1.2)
		rc2 := rng.Range(x, x+150)

		r := math.Sqrt(x)
		invX := 1 / x
		invR := r * invX
		invSqrtPiBeta := beta / math.SqrtPi
		invRc2 := 1 / rc2

		// The original Ewald real-space expression, exactly as it
		// appeared in Nonbonded and NonbondedCluster.
		br := beta * r
		erfc := math.Erfc(br)
		wantEE := qq * erfc * invR
		wantD := -qq * (invSqrtPiBeta*math.Exp(-br*br)*invX + 0.5*erfc*invX*invR)

		gotEE, gotD := elecEwaldReal(qq, r, invR, invX, beta, invSqrtPiBeta)
		if gotEE != wantEE || gotD != wantD {
			t.Fatalf("elecEwaldReal(qq=%g, x=%g, beta=%g) = (%x, %x), inline gives (%x, %x)",
				qq, x, beta, gotEE, gotD, wantEE, wantD)
		}

		// The original shifted-Coulomb expression.
		sh := 1 - x*invRc2
		qir := qq * invR
		shsh := sh * sh
		wantEE = qir * shsh
		wantD = -qir * (0.5*shsh*invX + 2*sh*invRc2)

		gotEE, gotD = elecShiftedCoulomb(qq, invR, invX, x, invRc2)
		if gotEE != wantEE || gotD != wantD {
			t.Fatalf("elecShiftedCoulomb(qq=%g, x=%g, rc2=%g) = (%x, %x), inline gives (%x, %x)",
				qq, x, rc2, gotEE, gotD, wantEE, wantD)
		}
	}
}
