package core

import (
	"math"
	"testing"

	"gonamd/internal/vec"
	"gonamd/internal/xrand"
)

// TestCensusShiftIsMinImage checks census.shift against vec.MinImage2:
// wherever it names one shift for two ranges of coordinates, every
// displacement between them, shifted, squares to the bits MinImage2
// returns. The ranges straddle each edge of the zones (3L/8, 5L/8,
// 11L/8) and lie several boxes apart, so both answers occur often.
func TestCensusShiftIsMinImage(t *testing.T) {
	rng := xrand.New(5)
	var shifted, refused int
	for _, l := range []float64{39, 77.76, 108.86} {
		box := vec.New(l, l, l)
		k := census{box: box}
		for trial := 0; trial < 4000; trial++ {
			edge := []float64{0, 0.375, 0.625, 1, 1.375, 2.5}[rng.Intn(6)] * l
			if rng.Intn(2) == 0 {
				edge = -edge
			}
			lo := edge + rng.Range(-3, 3)*math.Pow(10, -rng.Range(0, 8))
			wa, wb := rng.Range(0, 6), rng.Range(0, 6)
			bMax := rng.Range(-2*l, 2*l)
			aMin := lo + bMax
			aMax, bMin := aMin+wa, bMax-wb
			s, ok := k.shift(vec.New(aMin, 0, 0), vec.New(aMax, 0, 0), vec.New(bMin, 0, 0), vec.New(bMax, 0, 0))
			if !ok {
				refused++
				continue
			}
			shifted++
			for i := 0; i < 20; i++ {
				a, b := aMin+rng.Float64()*wa, bMin+rng.Float64()*wb
				switch i {
				case 0:
					a, b = aMin, bMax
				case 1:
					a, b = aMax, bMin
				}
				d := a - b - s.X
				want := vec.MinImage2(vec.New(a, 0, 0), vec.New(b, 0, 0), box)
				if got := d * d; math.Float64bits(got) != math.Float64bits(want) {
					t.Fatalf("L %g: a %v b %v shift %v: r² %v, MinImage2 %v", l, a, b, s.X, got, want)
				}
			}
		}
	}
	if shifted < 1000 || refused < 1000 {
		t.Fatalf("%d ranges shifted, %d refused: the cases miss a zone", shifted, refused)
	}
}
