package vec

import (
	"math"
	"testing"
	"testing/quick"
)

func TestBasicArithmetic(t *testing.T) {
	a := New(1, 2, 3)
	b := New(4, -5, 6)
	if got := a.Add(b); got != New(5, -3, 9) {
		t.Errorf("Add = %v", got)
	}
	if got := a.Sub(b); got != New(-3, 7, -3) {
		t.Errorf("Sub = %v", got)
	}
	if got := a.Scale(2); got != New(2, 4, 6) {
		t.Errorf("Scale = %v", got)
	}
	if got := a.Neg(); got != New(-1, -2, -3) {
		t.Errorf("Neg = %v", got)
	}
	if got := a.Dot(b); got != 1*4+2*(-5)+3*6 {
		t.Errorf("Dot = %v", got)
	}
	if got := a.Mul(b); got != New(4, -10, 18) {
		t.Errorf("Mul = %v", got)
	}
}

func TestCross(t *testing.T) {
	x := New(1, 0, 0)
	y := New(0, 1, 0)
	z := New(0, 0, 1)
	if got := x.Cross(y); got != z {
		t.Errorf("x × y = %v, want %v", got, z)
	}
	if got := y.Cross(x); got != z.Neg() {
		t.Errorf("y × x = %v, want %v", got, z.Neg())
	}
	// a × a == 0 for arbitrary a.
	a := New(3.5, -2, 7)
	if got := a.Cross(a); got != Zero {
		t.Errorf("a × a = %v, want zero", got)
	}
}

func TestNormAndUnit(t *testing.T) {
	v := New(3, 4, 0)
	if v.Norm() != 5 {
		t.Errorf("Norm = %v, want 5", v.Norm())
	}
	if v.Norm2() != 25 {
		t.Errorf("Norm2 = %v, want 25", v.Norm2())
	}
	u := v.Unit()
	if math.Abs(u.Norm()-1) > 1e-15 {
		t.Errorf("|Unit| = %v, want 1", u.Norm())
	}
	defer func() {
		if recover() == nil {
			t.Error("Unit of zero vector did not panic")
		}
	}()
	Zero.Unit()
}

func TestDist(t *testing.T) {
	a := New(1, 1, 1)
	b := New(4, 5, 1)
	if Dist(a, b) != 5 {
		t.Errorf("Dist = %v, want 5", Dist(a, b))
	}
	if Dist2(a, b) != 25 {
		t.Errorf("Dist2 = %v, want 25", Dist2(a, b))
	}
}

func TestCompAccessors(t *testing.T) {
	v := New(7, 8, 9)
	for i, want := range []float64{7, 8, 9} {
		if got := v.Comp(i); got != want {
			t.Errorf("Comp(%d) = %v, want %v", i, got, want)
		}
	}
	if got := v.SetComp(1, -1); got != New(7, -1, 9) {
		t.Errorf("SetComp = %v", got)
	}
	// Original unchanged (value semantics).
	if v != New(7, 8, 9) {
		t.Errorf("SetComp mutated receiver: %v", v)
	}
	defer func() {
		if recover() == nil {
			t.Error("Comp(3) did not panic")
		}
	}()
	v.Comp(3)
}

func TestMinMax(t *testing.T) {
	a := New(1, 5, 3)
	b := New(2, 4, 3)
	if got := Min(a, b); got != New(1, 4, 3) {
		t.Errorf("Min = %v", got)
	}
	if got := Max(a, b); got != New(2, 5, 3) {
		t.Errorf("Max = %v", got)
	}
}

func TestWrap(t *testing.T) {
	box := New(10, 20, 30)
	cases := []struct{ in, want V3 }{
		{New(5, 5, 5), New(5, 5, 5)},
		{New(15, 25, 35), New(5, 5, 5)},
		{New(-1, -1, -1), New(9, 19, 29)},
		{New(10, 20, 30), New(0, 0, 0)},
	}
	for _, c := range cases {
		if got := Wrap(c.in, box); !ApproxEq(got, c.want, 1e-12) {
			t.Errorf("Wrap(%v) = %v, want %v", c.in, got, c.want)
		}
	}
}

// TestWrap1MatchesMod: wrap1's in-box shortcut returns the bits the
// math.Mod form returns, at the boundaries and the special values.
func TestWrap1MatchesMod(t *testing.T) {
	modForm := func(x, l float64) float64 {
		x = math.Mod(x, l)
		if x < 0 {
			x += l
		}
		return x
	}
	for _, l := range []float64{48.3, 1, 0.7} {
		ulp := math.Nextafter(l, math.Inf(1)) - l
		for _, x := range []float64{
			math.Copysign(0, -1), 0, math.Nextafter(l, 0), l, -ulp,
			-math.SmallestNonzeroFloat64, math.SmallestNonzeroFloat64,
			l / 2, 3 * l, -3 * l, -l, 1e300, -1e300,
			math.Inf(1), math.Inf(-1), math.NaN(),
		} {
			got, want := wrap1(x, l), modForm(x, l)
			if math.Float64bits(got) != math.Float64bits(want) && !(math.IsNaN(got) && math.IsNaN(want)) {
				t.Errorf("wrap1(%g, %g) = %g (%#x), Mod form %g (%#x)", x, l, got, math.Float64bits(got), want, math.Float64bits(want))
			}
		}
	}
}

func TestMinImage(t *testing.T) {
	box := New(10, 10, 10)
	// Atoms at opposite edges are actually close through the boundary.
	d := MinImage(New(9.5, 0, 0), New(0.5, 0, 0), box)
	if !ApproxEq(d, New(-1, 0, 0), 1e-12) {
		t.Errorf("MinImage = %v, want (-1,0,0)", d)
	}
	d = MinImage(New(2, 2, 2), New(1, 1, 1), box)
	if !ApproxEq(d, New(1, 1, 1), 1e-12) {
		t.Errorf("MinImage = %v, want (1,1,1)", d)
	}
}

// Property: Wrap output always lies inside [0, box).
func TestWrapInBoxProperty(t *testing.T) {
	box := New(12.5, 33, 7)
	f := func(x, y, z float64) bool {
		if math.IsNaN(x) || math.IsInf(x, 0) ||
			math.IsNaN(y) || math.IsInf(y, 0) ||
			math.IsNaN(z) || math.IsInf(z, 0) {
			return true
		}
		w := Wrap(New(x, y, z), box)
		return w.X >= 0 && w.X < box.X &&
			w.Y >= 0 && w.Y < box.Y &&
			w.Z >= 0 && w.Z < box.Z
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// Property: minimum-image displacement is never longer than half the box
// diagonal, and agrees with the plain difference modulo box translations.
func TestMinImageProperty(t *testing.T) {
	box := New(10, 14, 18)
	f := func(ax, ay, az, bx, by, bz float64) bool {
		for _, c := range []float64{ax, ay, az, bx, by, bz} {
			if math.IsNaN(c) || math.Abs(c) > 1e6 {
				return true
			}
		}
		a, b := New(ax, ay, az), New(bx, by, bz)
		d := MinImage(a, b, box)
		if math.Abs(d.X) > box.X/2+1e-9 || math.Abs(d.Y) > box.Y/2+1e-9 || math.Abs(d.Z) > box.Z/2+1e-9 {
			return false
		}
		// d must differ from a-b by an integer number of box lengths.
		r := a.Sub(b).Sub(d)
		for i := 0; i < 3; i++ {
			q := r.Comp(i) / box.Comp(i)
			if math.Abs(q-math.Round(q)) > 1e-6 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// Property: dot product is bilinear and symmetric; cross is antisymmetric
// and orthogonal to its arguments.
func TestAlgebraProperties(t *testing.T) {
	f := func(ax, ay, az, bx, by, bz float64) bool {
		for _, c := range []float64{ax, ay, az, bx, by, bz} {
			if math.IsNaN(c) || math.Abs(c) > 1e8 {
				return true
			}
		}
		a, b := New(ax, ay, az), New(bx, by, bz)
		if math.Abs(a.Dot(b)-b.Dot(a)) > 1e-6*(1+math.Abs(a.Dot(b))) {
			return false
		}
		c := a.Cross(b)
		anti := b.Cross(a).Neg()
		if !ApproxEq(c, anti, 1e-6*(1+c.Norm())) {
			return false
		}
		tol := 1e-6 * (1 + c.Norm()) * (1 + a.Norm() + b.Norm())
		return math.Abs(c.Dot(a)) <= tol && math.Abs(c.Dot(b)) <= tol
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// MinImage2 must return the bits of MinImage(…).Norm2(): at the quarter
// box (where its pre-test hands over to the division), at exactly half a
// box (math.Round rounds ½ away from zero), at whole multiples and
// several boxes away, one ulp either side of each, and at random.
func TestMinImage2BitwiseMinImage(t *testing.T) {
	box := New(10, 14.3, 77.76)
	var ds []float64
	for _, f := range []float64{0, 0.25, 0.5, 0.75, 1, 1.5, 2, 2.5, 3.25, 7.5} {
		for _, L := range []float64{box.X, box.Y, box.Z} {
			d := f * L
			ds = append(ds, d, -d, math.Nextafter(d, 0), -math.Nextafter(d, 0),
				math.Nextafter(d, math.Inf(1)), -math.Nextafter(d, math.Inf(1)))
		}
	}
	check := func(a, b V3) {
		t.Helper()
		got, want := MinImage2(a, b, box), MinImage(a, b, box).Norm2()
		if math.Float64bits(got) != math.Float64bits(want) {
			t.Fatalf("MinImage2(%v, %v) = %v (%#x), MinImage Norm2 %v (%#x)",
				a, b, got, math.Float64bits(got), want, math.Float64bits(want))
		}
	}
	for _, dx := range ds {
		for _, b := range []V3{Zero, New(3.3, 1e-3, 70), New(-4.1, 20, 0.5)} {
			check(b.Add(New(dx, 0, 0)), b)
			check(b.Add(New(0, dx, 0)), b)
			check(b.Add(New(0, 0, dx)), b)
			check(b.Add(New(dx, -dx/3, dx*0.7)), b)
		}
	}
	f := func(ax, ay, az, bx, by, bz float64) bool {
		a := New(math.Mod(ax, 100), math.Mod(ay, 100), math.Mod(az, 300))
		b := New(math.Mod(bx, 100), math.Mod(by, 100), math.Mod(bz, 300))
		return math.Float64bits(MinImage2(a, b, box)) == math.Float64bits(MinImage(a, b, box).Norm2())
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20000}); err != nil {
		t.Error(err)
	}
}
