package molgen

import (
	"fmt"

	"gonamd/internal/vec"
)

// Cutoff is the nonbonded cutoff used by all paper benchmarks (12 Å).
const Cutoff = 12.0

// ApoA1 is the paper's primary benchmark: a high-density lipoprotein
// particle model of 92,224 atoms, 12 Å cutoff, decomposed into a
// 7×7×5 = 245 patch grid. Our synthetic stand-in has four protein-like
// chains wrapping a lipid bilayer disc, solvated in water, at the same
// atom count and patch grid.
func ApoA1() Spec {
	return Spec{
		Name:          "ApoA-I",
		Box:           vec.New(108.86, 108.86, 77.76),
		PatchDims:     [3]int{7, 7, 5},
		TargetAtoms:   92224,
		ProteinChains: 4,
		ChainResidues: 250, // 4 × 250 × 6 = 6000 protein atoms
		LipidCount:    160,
		LipidTailLen:  16, // 160 × 34 = 5440 lipid atoms
		Temperature:   300,
		Seed:          20000104,
	}
}

// BC1 is the paper's large benchmark: 206,617 atoms in 378 patches
// (9×7×6 grid).
func BC1() Spec {
	return Spec{
		Name:          "BC1",
		Box:           vec.New(157.5, 122.5, 105.0),
		PatchDims:     [3]int{9, 7, 6},
		TargetAtoms:   206617,
		ProteinChains: 8,
		ChainResidues: 300, // 14400 protein atoms
		LipidCount:    300,
		LipidTailLen:  16, // 10200 lipid atoms
		Temperature:   300,
		Seed:          20000511,
	}
}

// BR is the paper's small benchmark (bacteriorhodopsin): 3,762 atoms in
// 36 patches (4×3×3 grid).
func BR() Spec {
	return Spec{
		Name:          "bR",
		Box:           vec.New(48.8, 36.6, 36.6),
		PatchDims:     [3]int{4, 3, 3},
		TargetAtoms:   3762,
		ProteinChains: 1,
		ChainResidues: 180, // 1080 protein atoms
		LipidCount:    0,
		LipidTailLen:  0,
		Temperature:   300,
		Seed:          19991020,
	}
}

// Preset returns the spec of a named system: "water" is a WaterBox of
// the given side and seed; "br", "apoa1" and "bc1" are the paper's
// benchmarks, which ignore both.
func Preset(name string, side float64, seed uint64) (Spec, error) {
	switch name {
	case "water":
		return WaterBox(side, seed), nil
	case "br":
		return BR(), nil
	case "apoa1":
		return ApoA1(), nil
	case "bc1":
		return BC1(), nil
	}
	return Spec{}, fmt.Errorf("molgen: unknown system preset %q (want water, br, apoa1, or bc1)", name)
}

// WaterBox returns a pure-water cube with roughly liquid density
// (~0.1 atoms/Å³), used by correctness tests and the quickstart example.
func WaterBox(side float64, seed uint64) Spec {
	nWaters := int(side * side * side * 0.0334)
	return Spec{
		Name:        "water box",
		Box:         vec.New(side, side, side),
		TargetAtoms: nWaters * 3,
		Temperature: 300,
		Seed:        seed,
	}
}
