package traj

import (
	"bytes"
	"encoding/binary"
	"io"
	"math"
	"runtime"
	"strings"
	"testing"

	"gonamd/internal/forcefield"
	"gonamd/internal/molgen"
	"gonamd/internal/topology"
	"gonamd/internal/vec"
	"gonamd/internal/xrand"
)

func TestRoundTrip(t *testing.T) {
	var buf bytes.Buffer
	box := vec.New(10, 20, 30)
	w, err := NewWriter(&buf, 3, box)
	if err != nil {
		t.Fatal(err)
	}
	frames := [][]vec.V3{
		{vec.New(1, 2, 3), vec.New(4, 5, 6), vec.New(7, 8, 9)},
		{vec.New(1.5, 2.5, 3.5), vec.New(4.5, 5.5, 6.5), vec.New(7.5, 8.5, 9.5)},
	}
	for i, f := range frames {
		if err := w.WriteFrame(int64(i*10), float64(i)*0.5, f); err != nil {
			t.Fatal(err)
		}
	}
	if w.Frames() != 2 {
		t.Errorf("Frames = %d", w.Frames())
	}
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}

	r, err := NewReader(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if r.NAtoms != 3 || !vec.ApproxEq(r.Box, box, 1e-12) {
		t.Errorf("header: %d atoms, box %v", r.NAtoms, r.Box)
	}
	got, err := r.ReadAll()
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 2 {
		t.Fatalf("frames = %d", len(got))
	}
	for fi, f := range got {
		if f.Step != int64(fi*10) || f.Time != float64(fi)*0.5 {
			t.Errorf("frame %d header: step %d time %v", fi, f.Step, f.Time)
		}
		for i := range f.Pos {
			if !vec.ApproxEq(f.Pos[i], frames[fi][i], 1e-5) {
				t.Errorf("frame %d atom %d: %v vs %v", fi, i, f.Pos[i], frames[fi][i])
			}
		}
	}
	// EOF after last frame.
	if _, err := r.ReadFrame(); err != io.EOF {
		t.Errorf("expected EOF, got %v", err)
	}
}

func TestReaderRejectsGarbage(t *testing.T) {
	if _, err := NewReader(strings.NewReader("not a trajectory file....")); err == nil {
		t.Error("garbage header accepted")
	}
	if _, err := NewReader(strings.NewReader("")); err == nil {
		t.Error("empty input accepted")
	}
}

func TestWriterValidation(t *testing.T) {
	var buf bytes.Buffer
	if _, err := NewWriter(&buf, 0, vec.New(1, 1, 1)); err == nil {
		t.Error("natoms=0 accepted")
	}
	w, err := NewWriter(&buf, 2, vec.New(1, 1, 1))
	if err != nil {
		t.Fatal(err)
	}
	if err := w.WriteFrame(0, 0, make([]vec.V3, 5)); err == nil {
		t.Error("wrong frame size accepted")
	}
}

func TestTruncatedFrame(t *testing.T) {
	var buf bytes.Buffer
	w, _ := NewWriter(&buf, 4, vec.New(5, 5, 5))
	w.WriteFrame(0, 0, make([]vec.V3, 4))
	w.Flush()
	data := buf.Bytes()[:buf.Len()-7] // chop the last frame short
	r, err := NewReader(bytes.NewReader(data))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := r.ReadFrame(); err == nil {
		t.Error("truncated frame read without error")
	}
}

func TestRDFIdealGas(t *testing.T) {
	// Uncorrelated uniform particles: g(r) ≈ 1 away from zero.
	box := vec.New(20, 20, 20)
	sys := &topology.System{Box: box}
	rng := xrand.New(17)
	const n = 600
	for i := 0; i < n; i++ {
		sys.Atoms = append(sys.Atoms, topology.Atom{Mass: 1})
	}
	var frames []*Frame
	for f := 0; f < 4; f++ {
		fr := &Frame{Pos: make([]vec.V3, n)}
		for i := range fr.Pos {
			fr.Pos[i] = vec.New(rng.Range(0, 20), rng.Range(0, 20), rng.Range(0, 20))
		}
		frames = append(frames, fr)
	}
	all := func(int) bool { return true }
	g := RDF(sys, frames, all, all, 8, 16)
	// Average g(r) over 3-8 Å should be near 1.
	sum, cnt := 0.0, 0
	for b := 6; b < 16; b++ {
		sum += g[b]
		cnt++
	}
	avg := sum / float64(cnt)
	if math.Abs(avg-1) > 0.1 {
		t.Errorf("ideal-gas g(r) average = %.3f, want ≈ 1", avg)
	}
}

func TestRDFWaterOxygenPeak(t *testing.T) {
	// Water O-O g(r) must show a strong first-neighbor peak well above 1
	// and near-zero density inside the core.
	sys, st, err := molgen.Build(molgen.WaterBox(16, 6))
	if err != nil {
		t.Fatal(err)
	}
	frames := []*Frame{{Pos: st.Pos}}
	isO := func(i int) bool { return sys.Atoms[i].Type == forcefield.TypeOW }
	g := RDF(sys, frames, isO, isO, 6, 30)
	// Core (r < 2 Å) empty.
	for b := 0; b < 10; b++ {
		if g[b] > 0.3 {
			t.Errorf("g(r) at %.1f Å = %.2f, want ≈ 0 (core)", (float64(b)+0.5)*0.2, g[b])
		}
	}
	peak := 0.0
	for _, v := range g {
		if v > peak {
			peak = v
		}
	}
	if peak < 1.2 {
		t.Errorf("no first-shell O-O peak: max g(r) = %.2f", peak)
	}
}

func TestMSDBallistic(t *testing.T) {
	// Particles moving at constant velocity: MSD(t) = (v t)².
	box := vec.New(50, 50, 50)
	sys := &topology.System{Box: box}
	const n = 10
	for i := 0; i < n; i++ {
		sys.Atoms = append(sys.Atoms, topology.Atom{Mass: 1})
	}
	v := vec.New(0.3, 0.1, -0.2)
	var frames []*Frame
	for f := 0; f < 8; f++ {
		fr := &Frame{Pos: make([]vec.V3, n)}
		for i := range fr.Pos {
			start := vec.New(float64(i)*3, float64(i)*2, float64(i))
			fr.Pos[i] = vec.Wrap(start.Add(v.Scale(float64(f))), box)
		}
		frames = append(frames, fr)
	}
	msd := MSD(sys, frames, func(int) bool { return true })
	for f := 1; f < len(frames); f++ {
		want := v.Norm2() * float64(f*f)
		if math.Abs(msd[f]-want) > 1e-9 {
			t.Errorf("MSD[%d] = %v, want %v", f, msd[f], want)
		}
	}
}

func TestMSDHandlesWrapping(t *testing.T) {
	// A particle crossing the periodic boundary must not show a jump.
	box := vec.New(10, 10, 10)
	sys := &topology.System{Atoms: []topology.Atom{{Mass: 1}}, Box: box}
	var frames []*Frame
	for f := 0; f < 20; f++ {
		x := 9.0 + 0.2*float64(f) // crosses x = 10
		frames = append(frames, &Frame{Pos: []vec.V3{vec.Wrap(vec.New(x, 5, 5), box)}})
	}
	msd := MSD(sys, frames, func(int) bool { return true })
	for f := 1; f < len(frames); f++ {
		want := math.Pow(0.2*float64(f), 2)
		if math.Abs(msd[f]-want) > 1e-9 {
			t.Errorf("MSD[%d] = %v, want %v", f, msd[f], want)
		}
	}
}

// TestReaderTrustsNoAtomCount: a header claiming 2³²−1 atoms in front of
// a few bytes of frame data is a truncated frame, read without
// allocating the 48 GiB the count implies, and a header claiming none
// is rejected — no writer produces one.
func TestReaderTrustsNoAtomCount(t *testing.T) {
	var buf bytes.Buffer
	w, _ := NewWriter(&buf, 2, vec.New(5, 5, 5))
	w.WriteFrame(0, 0, make([]vec.V3, 2))
	w.Flush()
	data := buf.Bytes()
	for _, tc := range []struct {
		natoms uint32
		reject bool
	}{{math.MaxUint32, false}, {0, true}} {
		binary.LittleEndian.PutUint32(data[4:8], tc.natoms)
		r, err := NewReader(bytes.NewReader(data))
		if tc.reject {
			if err == nil {
				t.Errorf("header with %d atoms accepted", tc.natoms)
			}
			continue
		}
		if err != nil {
			t.Fatal(err)
		}
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		if _, err := r.ReadFrame(); err == nil || !strings.Contains(err.Error(), "truncated frame") {
			t.Errorf("frame behind a %d-atom header: %v, want truncated", tc.natoms, err)
		}
		runtime.ReadMemStats(&after)
		if grew := after.TotalAlloc - before.TotalAlloc; grew > 1<<20 {
			t.Errorf("reading a 24-byte frame allocated %d bytes", grew)
		}
	}
}

// FuzzTrajReader holds the trajectory reader — which gonamdd runs on a
// job's trajectory file when it resumes the job — to the decoder
// contract: error cleanly or succeed, never panic, and the frames it
// accepts re-encode through Writer and read back the same.
func FuzzTrajReader(f *testing.F) {
	var buf bytes.Buffer
	w, _ := NewWriter(&buf, 3, vec.New(10, 20, 30))
	for i := 0; i < 3; i++ {
		pos := []vec.V3{vec.New(1, 2, 3), vec.New(4.5, 5.5, 6.5), vec.New(float64(i), -1, 1e-3)}
		w.WriteFrame(int64(10*i), float64(i)*0.5, pos)
	}
	w.Flush()
	file := buf.Bytes()
	f.Add(file)
	f.Add(file[:len(file)-7])
	f.Add(file[:32])
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, data []byte) {
		r, err := NewReader(bytes.NewReader(data))
		if err != nil {
			return
		}
		frames, _ := r.ReadAll() // a torn trailing frame ends the read
		if len(frames) == 0 {
			return
		}
		var out bytes.Buffer
		w, err := NewWriter(&out, r.NAtoms, r.Box)
		if err != nil {
			t.Fatalf("accepted header does not re-encode: %v", err)
		}
		for _, fr := range frames {
			if err := w.WriteFrame(fr.Step, fr.Time, fr.Pos); err != nil {
				t.Fatalf("accepted frame does not re-encode: %v", err)
			}
		}
		w.Flush()
		r2, err := NewReader(&out)
		if err != nil {
			t.Fatalf("re-encoded header does not read: %v", err)
		}
		again, err := r2.ReadAll()
		if err != nil || len(again) != len(frames) || r2.NAtoms != r.NAtoms || !same(r2.Box.X, r.Box.X) || !same(r2.Box.Y, r.Box.Y) || !same(r2.Box.Z, r.Box.Z) {
			t.Fatalf("re-encoded trajectory reads back differently: %d of %d frames, err %v", len(again), len(frames), err)
		}
		for k, fr := range frames {
			g := again[k]
			if g.Step != fr.Step || !same(g.Time, fr.Time) {
				t.Fatalf("frame %d header changed across a re-encode", k)
			}
			for i, p := range fr.Pos {
				if q := g.Pos[i]; !same(q.X, p.X) || !same(q.Y, p.Y) || !same(q.Z, p.Z) {
					t.Fatalf("frame %d atom %d: %v re-encodes as %v", k, i, p, q)
				}
			}
		}
	})
}

// same is float equality that also holds between two NaNs.
func same(a, b float64) bool { return a == b || (a != a && b != b) }
