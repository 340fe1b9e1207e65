package serve

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"reflect"
	"strings"
	"testing"

	"gonamd"
	"gonamd/internal/sysio"
)

// TestLBStrategyAdmission: job specs naming a load-balancing strategy
// are validated when submitted, not when the queued job first runs —
// unknown names fail with the typed registry error listing the valid
// names, and naming one on the sequential engine is rejected.
func TestLBStrategyAdmission(t *testing.T) {
	base := func() JobSpec {
		return JobSpec{
			System: SystemSpec{Preset: "water"},
			Steps:  10,
			Engine: gonamd.EngineSpec{Engine: "parallel"},
		}
	}

	t.Run("valid names accepted", func(t *testing.T) {
		for _, name := range gonamd.LBStrategyNames() {
			s := base()
			s.Engine.LBStrategy = name
			if err := s.normalize(100); err != nil {
				t.Errorf("lb_strategy %q rejected: %v", name, err)
			}
		}
	})

	t.Run("unknown name rejected with valid list", func(t *testing.T) {
		s := base()
		s.Engine.LBStrategy = "greedy"
		err := s.normalize(100)
		if err == nil {
			t.Fatal("unknown lb_strategy accepted")
		}
		var unknown *gonamd.UnknownLBStrategyError
		if !errors.As(err, &unknown) {
			t.Fatalf("error %T is not *UnknownLBStrategyError: %v", err, err)
		}
		for _, name := range gonamd.LBStrategyNames() {
			if !strings.Contains(err.Error(), name) {
				t.Errorf("error %q does not list valid name %q", err, name)
			}
		}
	})

	t.Run("sequential engine rejected", func(t *testing.T) {
		s := base()
		s.Engine.Engine = "sequential"
		s.Engine.LBStrategy = "hierarchical"
		err := s.normalize(100)
		if err == nil || !strings.Contains(err.Error(), "parallel") {
			t.Fatalf("lb_strategy on sequential engine: got %v, want parallel-engine error", err)
		}
	})
}

// TestEnsembleSpecAdmission: ensemble parameters ensemble.New would
// refuse — a negative or non-finite Langevin friction, a negative
// exchange interval, a rung at or below 0 K — fail normalize with an error naming the field, so
// POST /jobs answers 400 instead of admitting a job that fails when it
// first runs. Zero still means the default.
func TestEnsembleSpecAdmission(t *testing.T) {
	spec := func(gamma float64, every int) JobSpec {
		return JobSpec{
			System:   SystemSpec{Preset: "water"},
			Steps:    10,
			Ensemble: &EnsembleSpec{Replicas: 2, TMin: 300, TMax: 330, Gamma: gamma, ExchangeEvery: every},
		}
	}
	for _, c := range []struct {
		gamma float64
		every int
		field string
	}{
		{-0.01, 0, "gamma"},
		{math.NaN(), 0, "gamma"},
		{math.Inf(1), 0, "gamma"},
		{0.005, -5, "exchange_every"},
	} {
		s := spec(c.gamma, c.every)
		if err := s.normalize(100); err == nil || !strings.Contains(err.Error(), c.field) {
			t.Errorf("gamma %v, exchange_every %d: normalize says %v; want an error naming %s", c.gamma, c.every, err, c.field)
		}
	}
	// A ladder with a rung ensemble.New cannot thermostat.
	for _, ladder := range [][]float64{{300, -5}, {0, 300}} {
		s := JobSpec{System: SystemSpec{Preset: "water"}, Steps: 10, Ensemble: &EnsembleSpec{Temperatures: ladder}}
		if err := s.normalize(100); err == nil || !strings.Contains(err.Error(), "temperatures") {
			t.Errorf("temperatures %v: normalize says %v; want an error naming temperatures", ladder, err)
		}
	}
	s := spec(0, 0)
	if err := s.normalize(100); err != nil {
		t.Fatal(err)
	}
	if e := s.Ensemble; e.Gamma != 0.005 || e.ExchangeEvery != 100 {
		t.Errorf("defaults: gamma %v, exchange_every %d; want 0.005, 100", e.Gamma, e.ExchangeEvery)
	}
}

// TestJobMinimizerMatchesOracle: a job minimizes on the production
// cluster pipeline (JobSpec.prepare), and lands where the list-free
// reference mode — the oracle — does: the same minimum to 1e-9 Å per atom
// and a relative 1e-11 in potential, on the serve benchmark's box sizes
// at its iteration count and five times that.
func TestJobMinimizerMatchesOracle(t *testing.T) {
	for _, side := range []float64{16, 24} {
		for _, iters := range []int{20, 100} {
			t.Run(fmt.Sprintf("side=%g/minimize=%d", side, iters), func(t *testing.T) {
				spec := JobSpec{System: SystemSpec{Preset: "water", Side: side, Seed: 11}, Steps: 1, Minimize: iters}
				if err := spec.normalize(100); err != nil {
					t.Fatal(err)
				}
				sys, ff, got, err := spec.prepare(false)
				if err != nil {
					t.Fatal(err)
				}
				_, want, err := spec.System.build()
				if err != nil {
					t.Fatal(err)
				}
				oracle, err := gonamd.NewSequential(sys, ff, want)
				if err != nil {
					t.Fatal(err)
				}
				wantU := oracle.Minimize(iters, 0.2)
				var maxDx float64
				for i := range want.Pos {
					maxDx = math.Max(maxDx, gonamd.MinImage(got.Pos[i], want.Pos[i], sys.Box).Norm())
				}
				atGot, err := gonamd.NewSequential(sys, ff, got)
				if err != nil {
					t.Fatal(err)
				}
				relDU := math.Abs(atGot.ComputeForces().Potential()-wantU) / math.Abs(wantU)
				t.Logf("%d atoms: max |Δx| %.2g Å, relative ΔU %.2g", sys.N(), maxDx, relDU)
				if maxDx > 1e-9 || relDU > 1e-11 {
					t.Errorf("cluster minimizer left the oracle's minimum: max |Δx| %.3g Å (≤ 1e-9), relative ΔU %.3g (≤ 1e-11)", maxDx, relDU)
				}
			})
		}
	}
}

// FuzzJobSpec holds the job-spec decoder to the contract of the other
// decoders that read user bytes: arbitrary input, decoded strictly as
// Server.submit decodes it and then normalized, errors cleanly and never
// panics. A spec normalize accepts is persisted with json.Marshal and
// re-read on rescan by the same strict decode and normalize, so it must
// come back reflect.DeepEqual — otherwise a restarted server would run
// another job than the one it admitted.
func FuzzJobSpec(f *testing.F) {
	var blob bytes.Buffer
	sys, st, err := gonamd.BuildSystem(gonamd.WaterBoxSpec(6, 1))
	if err != nil {
		f.Fatal(err)
	}
	if err := sysio.Save(&blob, sys, st); err != nil {
		f.Fatal(err)
	}
	inline, err := json.Marshal(JobSpec{System: SystemSpec{Inline: blob.Bytes(), Cutoff: 4}, Steps: 5})
	if err != nil {
		f.Fatal(err)
	}
	f.Add(inline)
	for _, s := range []string{
		`{"name":"w1","system":{"preset":"water","side":16,"seed":3,"cutoff":6},
		  "engine":{"engine":"seq","thermostat":{"kind":"langevin","temperature":310,"gamma":0.005,"seed":5}},
		  "steps":2000000,"dt":0.5,"frame_every":200,"energy_every":500,"checkpoint_every":100,"minimize":40}`,
		`{"system":{"preset":"water","side":12},"engine":{"engine":"par","workers":2,"lb_strategy":"hierarchical",
		  "rebalance_every":5,"pme":{"grid_spacing":1,"mts_period":2}},"steps":200,"trace":true}`,
		`{"system":{"preset":"water"},"engine":{"cluster_m":4,"cluster_n":8,"hbond_constraints":true},"steps":1,"energy_every":-1}`,
		`{"system":{"preset":"water"},"ensemble":{"replicas":4,"tmin":300,"tmax":330,"exchange_every":25},"steps":200}`,
		`{"system":{"preset":"br"},"ensemble":{"temperatures":[300,310,320],"workers":2,"engine_workers":3},"steps":9,"priority":-2}`,
		`{"system":{"preset":"water","inline":""},"steps":1}`,
		`{"system":{"preset":"water"},"engine":{"tabulated":true},"steps":1}`,
		`{"system":{},"steps":0}`,
		`{}`,
		`[`,
	} {
		f.Add([]byte(s))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		spec, err := decodeSpec(bytes.NewReader(data))
		if err != nil {
			return
		}
		if err := spec.normalize(100); err != nil {
			return
		}
		persisted, err := json.Marshal(spec)
		if err != nil {
			t.Fatalf("accepted spec does not marshal: %v", err)
		}
		back, err := decodeSpec(bytes.NewReader(persisted))
		if err != nil {
			t.Fatalf("persisted spec does not decode strictly: %v\n%s", err, persisted)
		}
		if err := back.normalize(100); err != nil {
			t.Fatalf("persisted spec no longer normalizes: %v\n%s", err, persisted)
		}
		if !reflect.DeepEqual(spec, back) {
			t.Fatalf("spec changed through persistence:\nadmitted %+v\nrescanned %+v", spec, back)
		}
	})
}
