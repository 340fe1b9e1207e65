package gonamd_test

import (
	"encoding/json"
	"math"
	"reflect"
	"strings"
	"testing"

	"gonamd"
)

// specSystem builds a tiny water box for spec-bridge tests.
func specSystem(t *testing.T) (*gonamd.System, *gonamd.State, *gonamd.ForceField) {
	t.Helper()
	sys, st, err := gonamd.BuildSystem(gonamd.WaterBoxSpec(10, 7))
	if err != nil {
		t.Fatal(err)
	}
	return sys, st, gonamd.StandardForceField(4.5)
}

// TestEngineSpecMatchesOptions: an engine built through the JSON spec
// bridge must be bitwise-identical in behavior to one built directly
// with the corresponding functional options.
func TestEngineSpecMatchesOptions(t *testing.T) {
	sys, st, ff := specSystem(t)

	raw := `{
		"engine": "sequential",
		"cluster_m": 4, "cluster_n": 8,
		"thermostat": {"kind": "langevin", "temperature": 310, "seed": 99}
	}`
	var spec gonamd.EngineSpec
	if err := json.Unmarshal([]byte(raw), &spec); err != nil {
		t.Fatal(err)
	}
	stA := st.Clone()
	specEng, th, err := spec.NewEngine(sys, ff, stA)
	if err != nil {
		t.Fatal(err)
	}
	if th == nil || th.Name() != "langevin" {
		t.Fatalf("thermostat handle = %v, want langevin", th)
	}

	stB := st.Clone()
	optEng, err := gonamd.NewSequential(sys, ff, stB,
		gonamd.WithClusterLists(4, 8),
		gonamd.WithThermostat(&gonamd.Langevin{Target: 310, Gamma: 0.005, Seed: 99}))
	if err != nil {
		t.Fatal(err)
	}

	for i := 0; i < 20; i++ {
		specEng.Step(0.5)
		optEng.Step(0.5)
	}
	if !reflect.DeepEqual(stA.Pos, stB.Pos) || !reflect.DeepEqual(stA.Vel, stB.Vel) {
		t.Fatal("spec-built engine diverged from option-built engine")
	}
}

// TestEngineSpecParallel: the spec selects the parallel engine with its
// engine-specific options, including pinning rebalancing off.
func TestEngineSpecParallel(t *testing.T) {
	sys, st, ff := specSystem(t)
	zero := 0
	spec := gonamd.EngineSpec{
		Engine:         "parallel",
		Workers:        2,
		RebalanceEvery: &zero,
	}
	eng, th, err := spec.NewEngine(sys, ff, st.Clone())
	if err != nil {
		t.Fatal(err)
	}
	if th != nil {
		t.Fatalf("unexpected thermostat %v", th)
	}
	defer eng.Close()
	if eng.Workers() != 2 {
		t.Fatalf("workers = %d, want 2", eng.Workers())
	}
	// The default cadence would have rebalanced at step 20.
	if _, err := eng.Run(25, 0.5); err != nil {
		t.Fatal(err)
	}
	if n := eng.Balances(); n != 0 {
		t.Fatalf("%d rebalancing passes with rebalance_every 0, want none", n)
	}
}

// TestEngineSpecZeroRunsClusterLists: a spec with no cluster fields steps
// on the default cluster lists on either engine kind, never on the
// list-free reference mode, which is a test oracle only.
func TestEngineSpecZeroRunsClusterLists(t *testing.T) {
	sys, st, ff := specSystem(t)
	for _, spec := range []gonamd.EngineSpec{{}, {Engine: "seq"}, {Engine: "par", Workers: 2}} {
		eng, _, err := spec.NewEngine(sys, ff, st.Clone())
		if err != nil {
			t.Fatal(err)
		}
		if _, err := eng.Run(2, 0.5); err != nil {
			t.Fatal(err)
		}
		if n := eng.ClusterRebuilds(); n == 0 {
			t.Errorf("spec %+v: no cluster list built in 2 steps; the engine ran the list-free oracle", spec)
		}
		eng.Close()
	}
}

// TestEngineSpecPrecisionMode: the numerical mode is derived, not
// chosen — "fp64-tab" exactly when the tabulated kernel runs (PME: every
// spec runs cluster lists), "fp64" otherwise. Checkpoints record the
// string and services refuse to resume across a change.
func TestEngineSpecPrecisionMode(t *testing.T) {
	pme := &gonamd.PMESpec{GridSpacing: 1}
	cases := []struct {
		spec gonamd.EngineSpec
		want string
	}{
		{gonamd.EngineSpec{}, "fp64"},
		{gonamd.EngineSpec{PME: pme}, "fp64-tab"},
		{gonamd.EngineSpec{ClusterM: 4, ClusterN: 8}, "fp64"},
		{gonamd.EngineSpec{ClusterM: 4, ClusterN: 8, PME: pme}, "fp64-tab"},
		{gonamd.EngineSpec{Engine: "par"}, "fp64"},
		{gonamd.EngineSpec{Engine: "parallel", PME: pme}, "fp64-tab"},
	}
	for _, c := range cases {
		if got := c.spec.PrecisionMode(); got != c.want {
			t.Errorf("PrecisionMode(%+v) = %q, want %q", c.spec, got, c.want)
		}
	}
}

// TestEngineSpecRejectsRemovedFields: the retired list, precision and
// tabulation knobs are not silently dropped by a strict decoder.
func TestEngineSpecRejectsRemovedFields(t *testing.T) {
	for _, field := range []string{"pairlist_skin", "blocklist_skin", "cluster_skin", "mixed_precision", "tabulated", "table_spacing"} {
		dec := json.NewDecoder(strings.NewReader(`{"cluster_m":4,"cluster_n":8,"` + field + `":1}`))
		dec.DisallowUnknownFields()
		var spec gonamd.EngineSpec
		if err := dec.Decode(&spec); err == nil || !strings.Contains(err.Error(), field) {
			t.Errorf("%s: strict decode error %v does not name the field", field, err)
		}
	}
}

// TestEngineSpecRejections: invalid specs fail construction with the
// options layer's validation errors.
func TestEngineSpecRejections(t *testing.T) {
	sys, st, ff := specSystem(t)
	cases := []struct {
		name string
		spec gonamd.EngineSpec
	}{
		{"unknown engine", gonamd.EngineSpec{Engine: "quantum"}},
		{"half a cluster geometry", gonamd.EngineSpec{ClusterM: 4}},
		{"cluster geometry out of range", gonamd.EngineSpec{Engine: "par", ClusterM: 9, ClusterN: 9}},
		{"negative pme grid", gonamd.EngineSpec{PME: &gonamd.PMESpec{GridSpacing: -1}}},
		{"unknown thermostat", gonamd.EngineSpec{Thermostat: &gonamd.ThermostatSpec{Kind: "maxwell", Temperature: 300}}},
		{"cold thermostat", gonamd.EngineSpec{Thermostat: &gonamd.ThermostatSpec{Kind: "langevin"}}},
		{"infinitely hot thermostat", gonamd.EngineSpec{Thermostat: &gonamd.ThermostatSpec{Kind: "langevin", Temperature: math.Inf(1)}}},
		{"negative langevin gamma", gonamd.EngineSpec{Thermostat: &gonamd.ThermostatSpec{Kind: "langevin", Temperature: 300, Gamma: -0.01}}},
		{"NaN langevin gamma", gonamd.EngineSpec{Thermostat: &gonamd.ThermostatSpec{Kind: "langevin", Temperature: 300, Gamma: math.NaN()}}},
		{"negative berendsen tau", gonamd.EngineSpec{Thermostat: &gonamd.ThermostatSpec{Kind: "berendsen", Temperature: 300, Tau: -50}}},
		{"infinite berendsen tau", gonamd.EngineSpec{Thermostat: &gonamd.ThermostatSpec{Kind: "berendsen", Temperature: 300, Tau: math.Inf(1)}}},
		{"negative rescale interval", gonamd.EngineSpec{Thermostat: &gonamd.ThermostatSpec{Kind: "rescale", Temperature: 300, Interval: -5}}},
		{"shake plus pme", gonamd.EngineSpec{HBondConstraints: true, PME: &gonamd.PMESpec{GridSpacing: 1}}},
	}
	for _, c := range cases {
		if _, _, err := c.spec.NewEngine(sys, ff, st.Clone()); err == nil {
			t.Errorf("%s: construction succeeded, want error", c.name)
		}
	}
}

// TestThermostatSpecDefaults: omitted tuning parameters take the same
// defaults the CLIs use.
func TestThermostatSpecDefaults(t *testing.T) {
	th, err := (&gonamd.ThermostatSpec{Kind: "berendsen", Temperature: 300}).New()
	if err != nil {
		t.Fatal(err)
	}
	if b, ok := th.(*gonamd.Berendsen); !ok || b.Tau != 100 {
		t.Fatalf("berendsen = %+v", th)
	}
	th, err = (&gonamd.ThermostatSpec{Kind: "rescale", Temperature: 300}).New()
	if err != nil {
		t.Fatal(err)
	}
	if r, ok := th.(*gonamd.Rescale); !ok || r.Interval != 10 {
		t.Fatalf("rescale = %+v", th)
	}
	th, err = (&gonamd.ThermostatSpec{Kind: "langevin", Temperature: 300}).New()
	if err != nil {
		t.Fatal(err)
	}
	if l, ok := th.(*gonamd.Langevin); !ok || l.Gamma != 0.005 {
		t.Fatalf("langevin = %+v", th)
	}
}
