package sysio

import (
	"bytes"
	"compress/gzip"
	"encoding/gob"
	"math"
	"strings"
	"testing"

	"gonamd/internal/molgen"
	"gonamd/internal/topology"
)

func TestRoundTrip(t *testing.T) {
	sys, st, err := molgen.Build(molgen.WaterBox(14, 77))
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := Save(&buf, sys, st); err != nil {
		t.Fatal(err)
	}
	sys2, st2, err := Load(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if sys2.N() != sys.N() || len(sys2.Bonds) != len(sys.Bonds) ||
		len(sys2.Angles) != len(sys.Angles) || sys2.Box != sys.Box || sys2.Name != sys.Name {
		t.Fatal("topology mismatch after round trip")
	}
	for i := range st.Pos {
		if st.Pos[i] != st2.Pos[i] || st.Vel[i] != st2.Vel[i] {
			t.Fatalf("state mismatch at atom %d", i)
		}
	}
	// Exclusions were rebuilt.
	if !sys2.ExclusionsBuilt() {
		t.Fatal("exclusions not rebuilt on load")
	}
	f1, m1 := sys.NumExclusions()
	f2, m2 := sys2.NumExclusions()
	if f1 != f2 || m1 != m2 {
		t.Errorf("exclusions (%d,%d) vs (%d,%d)", f1, m1, f2, m2)
	}
}

func TestLoadRejectsGarbage(t *testing.T) {
	if _, _, err := Load(strings.NewReader("not a system file")); err == nil {
		t.Error("garbage accepted")
	}
	if _, _, err := Load(strings.NewReader("")); err == nil {
		t.Error("empty input accepted")
	}
}

func TestSaveValidates(t *testing.T) {
	sys, st, err := molgen.Build(molgen.WaterBox(10, 1))
	if err != nil {
		t.Fatal(err)
	}
	bad := &topology.State{Pos: st.Pos[:3], Vel: st.Vel[:3]}
	var buf bytes.Buffer
	if err := Save(&buf, sys, bad); err == nil {
		t.Error("mismatched state accepted")
	}
}

// TestLoadRejectsMalformedSystems: a system file whose topology indexes
// past its atoms, or whose box, coordinates, charges or masses are not
// finite — what a
// hostile or damaged gonamdd inline topology carries — is an error
// naming the defect, not a panic in the exclusion builder or, later, in
// the engines' cell binning.
func TestLoadRejectsMalformedSystems(t *testing.T) {
	for _, tc := range []struct {
		corrupt func(*topology.System, *topology.State)
		want    string
	}{
		{func(s *topology.System, _ *topology.State) { s.Bonds[0].I = 1 << 20 }, "bond 0 index out of range"},
		{func(s *topology.System, _ *topology.State) { s.Angles[0].K = -1 }, "angle 0 index out of range"},
		{func(s *topology.System, _ *topology.State) { s.Box.Y = math.Inf(1) }, "not finite and positive"},
		{func(_ *topology.System, st *topology.State) { st.Vel[3].Z = math.NaN() }, "atom 3 position"},
		{func(s *topology.System, _ *topology.State) { s.Atoms[2].Charge = math.NaN() }, "atom 2 has non-finite charge"},
		{func(s *topology.System, _ *topology.State) { s.Atoms[5].Charge = math.Inf(-1) }, "atom 5 has non-finite charge"},
		{func(s *topology.System, _ *topology.State) { s.Atoms[4].Mass = math.Inf(1) }, "atom 4 has mass +Inf"},
	} {
		sys, st, err := molgen.Build(molgen.WaterBox(10, 1))
		if err != nil {
			t.Fatal(err)
		}
		tc.corrupt(sys, st)
		var buf bytes.Buffer
		if err := Save(&buf, sys, st); err != nil {
			t.Fatal(err)
		}
		if _, _, err := Load(&buf); err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("Load error %v, want one containing %q", err, tc.want)
		}
	}
}

// FuzzSystemLoad holds Load to the contract of the other decoders that
// read user or disk bytes: error cleanly or succeed, never panic, and
// anything accepted re-saves and loads back to the same system and
// state. With compress set the input is a raw gob payload that the test
// gzips first, so the fuzzer reaches the decoder and the validation
// behind the gzip framing instead of dying on it.
func FuzzSystemLoad(f *testing.F) {
	for _, corrupt := range []func(*topology.System, *topology.State){
		func(*topology.System, *topology.State) {},
		func(sys *topology.System, _ *topology.State) { sys.Bonds[0].I = 1 << 20 },
		func(_ *topology.System, st *topology.State) { st.Pos = st.Pos[:1] },
	} {
		sys, st, err := molgen.Build(molgen.WaterBox(8, 3))
		if err != nil {
			f.Fatal(err)
		}
		corrupt(sys, st)
		var payload bytes.Buffer
		if err := gob.NewEncoder(&payload).Encode(&fileFormat{Magic: magic, Sys: sys, St: st}); err != nil {
			f.Fatal(err)
		}
		var file bytes.Buffer
		zw := gzip.NewWriter(&file)
		zw.Write(payload.Bytes())
		zw.Close()
		f.Add(file.Bytes(), false)
		f.Add(file.Bytes()[:file.Len()/2], false)
		f.Add(payload.Bytes(), true)
	}
	f.Add([]byte{}, true)
	f.Fuzz(func(t *testing.T, data []byte, compress bool) {
		if compress {
			var buf bytes.Buffer
			zw := gzip.NewWriter(&buf)
			zw.Write(data)
			zw.Close()
			data = buf.Bytes()
		}
		sys, st, err := Load(bytes.NewReader(data))
		if err != nil {
			return
		}
		var buf bytes.Buffer
		if err := Save(&buf, sys, st); err != nil {
			t.Fatalf("accepted system does not re-save: %v", err)
		}
		sys2, st2, err := Load(&buf)
		if err != nil {
			t.Fatalf("re-saved system does not load: %v", err)
		}
		var a, b bytes.Buffer
		if gob.NewEncoder(&a).Encode(&fileFormat{Magic: magic, Sys: sys, St: st}) != nil ||
			gob.NewEncoder(&b).Encode(&fileFormat{Magic: magic, Sys: sys2, St: st2}) != nil ||
			!bytes.Equal(a.Bytes(), b.Bytes()) {
			t.Fatal("system or state changed across a re-save")
		}
	})
}
