// Package vec provides small fixed-size vector math used throughout the
// molecular dynamics engine. Vectors are value types; all operations
// return new values and never allocate.
package vec

import (
	"fmt"
	"math"
)

// V3 is a three-component double-precision vector. It is used for
// positions (Å), velocities (Å/fs), forces (kcal/mol/Å), and box sizes.
type V3 struct {
	X, Y, Z float64
}

// New returns the vector (x, y, z).
func New(x, y, z float64) V3 { return V3{x, y, z} }

// Zero is the zero vector.
var Zero = V3{}

// Add returns v + w.
func (v V3) Add(w V3) V3 { return V3{v.X + w.X, v.Y + w.Y, v.Z + w.Z} }

// Sub returns v - w.
func (v V3) Sub(w V3) V3 { return V3{v.X - w.X, v.Y - w.Y, v.Z - w.Z} }

// Scale returns s * v.
func (v V3) Scale(s float64) V3 { return V3{s * v.X, s * v.Y, s * v.Z} }

// Neg returns -v.
func (v V3) Neg() V3 { return V3{-v.X, -v.Y, -v.Z} }

// Dot returns the inner product v · w.
func (v V3) Dot(w V3) float64 { return v.X*w.X + v.Y*w.Y + v.Z*w.Z }

// Cross returns the cross product v × w.
func (v V3) Cross(w V3) V3 {
	return V3{
		v.Y*w.Z - v.Z*w.Y,
		v.Z*w.X - v.X*w.Z,
		v.X*w.Y - v.Y*w.X,
	}
}

// Norm2 returns |v|².
func (v V3) Norm2() float64 { return v.Dot(v) }

// Norm returns |v|.
func (v V3) Norm() float64 { return math.Sqrt(v.Norm2()) }

// Dist returns |v - w|.
func Dist(v, w V3) float64 { return v.Sub(w).Norm() }

// Dist2 returns |v - w|².
func Dist2(v, w V3) float64 { return v.Sub(w).Norm2() }

// Unit returns v / |v|. It panics if v is the zero vector.
func (v V3) Unit() V3 {
	n := v.Norm()
	if n == 0 {
		panic("vec: unit of zero vector")
	}
	return v.Scale(1 / n)
}

// Mul returns the component-wise product.
func (v V3) Mul(w V3) V3 { return V3{v.X * w.X, v.Y * w.Y, v.Z * w.Z} }

// Min returns the component-wise minimum of v and w.
func Min(v, w V3) V3 {
	return V3{math.Min(v.X, w.X), math.Min(v.Y, w.Y), math.Min(v.Z, w.Z)}
}

// Max returns the component-wise maximum of v and w.
func Max(v, w V3) V3 {
	return V3{math.Max(v.X, w.X), math.Max(v.Y, w.Y), math.Max(v.Z, w.Z)}
}

// Comp returns component i (0 = X, 1 = Y, 2 = Z).
func (v V3) Comp(i int) float64 {
	switch i {
	case 0:
		return v.X
	case 1:
		return v.Y
	case 2:
		return v.Z
	}
	panic(fmt.Sprintf("vec: component index %d out of range", i))
}

// SetComp returns a copy of v with component i set to x.
func (v V3) SetComp(i int, x float64) V3 {
	switch i {
	case 0:
		v.X = x
	case 1:
		v.Y = x
	case 2:
		v.Z = x
	default:
		panic(fmt.Sprintf("vec: component index %d out of range", i))
	}
	return v
}

// String implements fmt.Stringer.
func (v V3) String() string { return fmt.Sprintf("(%.6g, %.6g, %.6g)", v.X, v.Y, v.Z) }

// ApproxEq reports whether v and w agree within tol in every component.
func ApproxEq(v, w V3, tol float64) bool {
	return math.Abs(v.X-w.X) <= tol && math.Abs(v.Y-w.Y) <= tol && math.Abs(v.Z-w.Z) <= tol
}

// Wrap maps v into the periodic box [0, box.X) × [0, box.Y) × [0, box.Z).
// Box components must be positive.
func Wrap(v, box V3) V3 {
	return V3{wrap1(v.X, box.X), wrap1(v.Y, box.Y), wrap1(v.Z, box.Z)}
}

// wrap1 maps x into [0, l). A coordinate already inside is returned
// as it is — bitwise what math.Mod returns for it, −0 included — so
// the per-step wraps of in-box atoms skip the division.
func wrap1(x, l float64) float64 {
	if 0 <= x && x < l {
		return x
	}
	x = math.Mod(x, l)
	if x < 0 {
		x += l
	}
	return x
}

// MinImage returns the minimum-image displacement d = v - w under periodic
// boundary conditions with the given box, i.e. the shortest vector from w
// to v among all periodic images.
func MinImage(v, w, box V3) V3 {
	d := v.Sub(w)
	d.X -= box.X * math.Round(d.X/box.X)
	d.Y -= box.Y * math.Round(d.Y/box.Y)
	d.Z -= box.Z * math.Round(d.Z/box.Z)
	return d
}

// MinImage2 returns MinImage(v, w, box).Norm2(), bit for bit, dividing
// only for a component at least a quarter of the box long. A shorter one
// is exact: |d/L| < ¼ rounds below ½, math.Round returns ±0, and
// subtracting L·(±0) leaves d's square as it was.
func MinImage2(v, w, box V3) float64 {
	dx, dy, dz := v.X-w.X, v.Y-w.Y, v.Z-w.Z
	if !(math.Abs(dx) < 0.25*box.X) {
		dx = image(dx, box.X)
	}
	if !(math.Abs(dy) < 0.25*box.Y) {
		dy = image(dy, box.Y)
	}
	if !(math.Abs(dz) < 0.25*box.Z) {
		dz = image(dz, box.Z)
	}
	return dx*dx + dy*dy + dz*dz
}

// image is one component of MinImage, without the rounding call where
// math.Round would return ±0.
func image(d, l float64) float64 {
	if q := d / l; !(math.Abs(q) < 0.5) {
		d -= l * math.Round(q)
	}
	return d
}
