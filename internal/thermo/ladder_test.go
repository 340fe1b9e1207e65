package thermo_test

// Ladder relaxation under real dynamics: the prerequisite confidence for
// replica exchange (internal/ensemble) is that a Langevin-thermostatted
// box actually equilibrates at each rung of a temperature ladder — if it
// sat at the wrong temperature, exchange acceptance would be computed
// between mislabeled ensembles. This lives in an external test package
// because the engine imports thermo.

import (
	"math"
	"testing"

	"gonamd/internal/engine"
	"gonamd/internal/forcefield"
	"gonamd/internal/molgen"
	"gonamd/internal/thermo"
)

func TestLangevinRelaxesToLadderTemperatures(t *testing.T) {
	sys, st, err := molgen.Build(molgen.WaterBox(12, 3))
	if err != nil {
		t.Fatal(err)
	}
	ff := forcefield.Standard(6.0)
	eng, err := engine.New(sys, ff, st, engine.Config{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	eng.Minimize(50, 0.2)

	const (
		dt     = 0.5  // fs
		gamma  = 0.05 // 1/fs: strong coupling, ~20 fs relaxation
		equil  = 300  // steps discarded while relaxing to the new rung
		sample = 400  // steps averaged
	)
	for _, target := range []float64{240, 300, 360, 420} {
		// Each rung continues the previous one's state under its own
		// thermostat; the list-free engine carries no history to lose.
		eng, err := engine.New(sys, ff, st, engine.Config{Workers: 1,
			Thermostat: &thermo.Langevin{Target: target, Gamma: gamma, Seed: 12}})
		if err != nil {
			t.Fatal(err)
		}
		if _, err := eng.Run(equil, dt); err != nil {
			t.Fatal(err)
		}
		mean := 0.0
		for s := 0; s < sample; s++ {
			if err := eng.Step(dt); err != nil {
				t.Fatal(err)
			}
			mean += thermo.Temperature(sys, st)
		}
		mean /= sample
		// ~170 atoms give ~6% instantaneous fluctuations; the mean over
		// 400 correlated samples is good to a few percent.
		if math.Abs(mean-target)/target > 0.10 {
			t.Errorf("ladder rung %v K: mean temperature %.1f K (off by %.1f%%)",
				target, mean, 100*math.Abs(mean-target)/target)
		}
	}
}
