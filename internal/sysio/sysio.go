// Package sysio persists built systems (topology + state) to a compact
// binary format, so expensive synthetic builds (BC1 is 206k atoms) can be
// generated once with cmd/molgen and reused across runs.
package sysio

import (
	"compress/gzip"
	"encoding/gob"
	"fmt"
	"io"
	"math"

	"gonamd/internal/topology"
	"gonamd/internal/vec"
)

// fileFormat is the on-disk structure (gob-encoded, gzip-compressed).
type fileFormat struct {
	Magic string
	Sys   *topology.System
	St    *topology.State
}

const magic = "gonamd-system-v1"

// Save writes the system and state.
func Save(w io.Writer, sys *topology.System, st *topology.State) error {
	if sys.N() != len(st.Pos) || sys.N() != len(st.Vel) {
		return fmt.Errorf("sysio: state size does not match system")
	}
	zw := gzip.NewWriter(w)
	if err := gob.NewEncoder(zw).Encode(&fileFormat{Magic: magic, Sys: sys, St: st}); err != nil {
		return fmt.Errorf("sysio: encoding: %w", err)
	}
	return zw.Close()
}

// Load reads a system and state written by Save, validating them and
// then rebuilding the exclusion lists (derived data, not stored). The
// bytes may come from a user (gonamdd inline topologies) or a damaged
// disk: anything malformed is an error, never a panic — validation runs
// first because the exclusion builder indexes atoms by bond, and
// non-finite coordinates are rejected because the engines bin atoms by
// them.
func Load(r io.Reader) (*topology.System, *topology.State, error) {
	zr, err := gzip.NewReader(r)
	if err != nil {
		return nil, nil, fmt.Errorf("sysio: not a gonamd system file: %w", err)
	}
	defer zr.Close()
	var f fileFormat
	if err := gob.NewDecoder(zr).Decode(&f); err != nil {
		return nil, nil, fmt.Errorf("sysio: decoding: %w", err)
	}
	if f.Magic != magic {
		return nil, nil, fmt.Errorf("sysio: bad magic %q", f.Magic)
	}
	if f.Sys == nil || f.St == nil {
		return nil, nil, fmt.Errorf("sysio: incomplete file")
	}
	if err := f.Sys.Validate(); err != nil {
		return nil, nil, fmt.Errorf("sysio: loaded system invalid: %w", err)
	}
	if f.Sys.N() != len(f.St.Pos) || f.Sys.N() != len(f.St.Vel) {
		return nil, nil, fmt.Errorf("sysio: state size does not match system")
	}
	for i := range f.St.Pos {
		if !finite(f.St.Pos[i]) || !finite(f.St.Vel[i]) {
			return nil, nil, fmt.Errorf("sysio: atom %d position %v or velocity %v is not finite", i, f.St.Pos[i], f.St.Vel[i])
		}
	}
	f.Sys.BuildExclusions()
	return f.Sys, f.St, nil
}

func finite(v vec.V3) bool {
	for _, x := range [3]float64{v.X, v.Y, v.Z} {
		if math.IsNaN(x) || math.IsInf(x, 0) {
			return false
		}
	}
	return true
}
