// Package traj provides trajectory output and analysis for the MD
// engines: a compact binary frame format (float32 coordinates, like the
// DCD files NAMD writes), and standard analyses (radial distribution
// function, mean squared displacement).
package traj

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"fmt"
	"io"
	"math"

	"gonamd/internal/topology"
	"gonamd/internal/vec"
)

// magic identifies the binary trajectory format ("GMD1").
const magic = 0x474d4431

// header is the fixed file preamble.
type header struct {
	Magic  uint32
	NAtoms uint32
	BoxX   float64
	BoxY   float64
	BoxZ   float64
}

// frameHeader precedes every frame.
type frameHeader struct {
	Step int64
	Time float64 // fs
}

// Writer streams binary trajectory frames.
type Writer struct {
	w      *bufio.Writer
	natoms int
	frames int
	buf    []float32
}

// NewWriter writes the file header and returns a frame writer.
func NewWriter(w io.Writer, natoms int, box vec.V3) (*Writer, error) {
	if natoms <= 0 {
		return nil, fmt.Errorf("traj: natoms = %d", natoms)
	}
	bw := bufio.NewWriter(w)
	h := header{Magic: magic, NAtoms: uint32(natoms), BoxX: box.X, BoxY: box.Y, BoxZ: box.Z}
	if err := binary.Write(bw, binary.LittleEndian, &h); err != nil {
		return nil, err
	}
	return &Writer{w: bw, natoms: natoms, buf: make([]float32, 3*natoms)}, nil
}

// WriteFrame appends one frame.
func (w *Writer) WriteFrame(step int64, time float64, pos []vec.V3) error {
	if len(pos) != w.natoms {
		return fmt.Errorf("traj: frame has %d atoms, want %d", len(pos), w.natoms)
	}
	if err := binary.Write(w.w, binary.LittleEndian, &frameHeader{Step: step, Time: time}); err != nil {
		return err
	}
	for i, p := range pos {
		w.buf[3*i] = float32(p.X)
		w.buf[3*i+1] = float32(p.Y)
		w.buf[3*i+2] = float32(p.Z)
	}
	if err := binary.Write(w.w, binary.LittleEndian, w.buf); err != nil {
		return err
	}
	w.frames++
	return nil
}

// Frames returns how many frames have been written.
func (w *Writer) Frames() int { return w.frames }

// Flush flushes buffered output; call before closing the underlying file.
func (w *Writer) Flush() error { return w.w.Flush() }

// Frame is one decoded trajectory frame.
type Frame struct {
	Step int64
	Time float64
	Pos  []vec.V3
}

// Reader decodes binary trajectories written by Writer.
type Reader struct {
	r      *bufio.Reader
	NAtoms int
	Box    vec.V3
}

// NewReader validates the header and returns a frame reader.
func NewReader(r io.Reader) (*Reader, error) {
	br := bufio.NewReader(r)
	var h header
	if err := binary.Read(br, binary.LittleEndian, &h); err != nil {
		return nil, fmt.Errorf("traj: reading header: %w", err)
	}
	if h.Magic != magic {
		return nil, fmt.Errorf("traj: bad magic %#x", h.Magic)
	}
	if h.NAtoms == 0 {
		return nil, fmt.Errorf("traj: header declares no atoms")
	}
	return &Reader{r: br, NAtoms: int(h.NAtoms), Box: vec.New(h.BoxX, h.BoxY, h.BoxZ)}, nil
}

// ReadFrame decodes the next frame, returning io.EOF at the end. The
// atom count comes from the file header, which the reader does not
// trust with an allocation: a frame's buffer grows as its bytes arrive,
// so a damaged count (up to 48 GiB of coordinates) costs no more memory
// than the bytes actually in the file.
func (r *Reader) ReadFrame() (*Frame, error) {
	var fh frameHeader
	if err := binary.Read(r.r, binary.LittleEndian, &fh); err != nil {
		if err == io.EOF || err == io.ErrUnexpectedEOF {
			return nil, io.EOF
		}
		return nil, err
	}
	var raw bytes.Buffer
	if n, err := io.CopyN(&raw, r.r, 12*int64(r.NAtoms)); err != nil {
		return nil, fmt.Errorf("traj: truncated frame: %d of %d coordinate bytes: %w", n, 12*int64(r.NAtoms), err)
	}
	b := raw.Bytes()
	coord := func(k int) float64 { return float64(math.Float32frombits(binary.LittleEndian.Uint32(b[4*k:]))) }
	f := &Frame{Step: fh.Step, Time: fh.Time, Pos: make([]vec.V3, r.NAtoms)}
	for i := range f.Pos {
		f.Pos[i] = vec.New(coord(3*i), coord(3*i+1), coord(3*i+2))
	}
	return f, nil
}

// ReadAll decodes all remaining frames.
func (r *Reader) ReadAll() ([]*Frame, error) {
	var out []*Frame
	for {
		f, err := r.ReadFrame()
		if err == io.EOF {
			return out, nil
		}
		if err != nil {
			return out, err
		}
		out = append(out, f)
	}
}

// RDF computes the radial distribution function g(r) between atoms
// selected by selA and selB (predicates over atom indices) out to rmax
// with the given number of bins, averaged over frames. Periodic
// minimum-image distances are used; the normalization makes g(r) → 1 for
// uncorrelated particles.
func RDF(sys *topology.System, frames []*Frame, selA, selB func(i int) bool, rmax float64, bins int) []float64 {
	if bins <= 0 || rmax <= 0 || len(frames) == 0 {
		return nil
	}
	var idxA, idxB []int
	for i := 0; i < sys.N(); i++ {
		if selA(i) {
			idxA = append(idxA, i)
		}
		if selB(i) {
			idxB = append(idxB, i)
		}
	}
	if len(idxA) == 0 || len(idxB) == 0 {
		return make([]float64, bins)
	}
	hist := make([]float64, bins)
	dr := rmax / float64(bins)
	for _, f := range frames {
		for _, i := range idxA {
			for _, j := range idxB {
				if i == j {
					continue
				}
				d := vec.MinImage(f.Pos[i], f.Pos[j], sys.Box).Norm()
				if d < rmax {
					hist[int(d/dr)]++
				}
			}
		}
	}
	// Normalize: expected count in shell for an ideal gas of B at its
	// average density.
	vol := sys.Box.X * sys.Box.Y * sys.Box.Z
	rhoB := float64(len(idxB)) / vol
	norm := float64(len(frames)) * float64(len(idxA)) * rhoB
	g := make([]float64, bins)
	for b := range g {
		r0 := float64(b) * dr
		r1 := r0 + dr
		shell := 4.0 / 3.0 * math.Pi * (r1*r1*r1 - r0*r0*r0)
		g[b] = hist[b] / (norm * shell)
	}
	return g
}

// MSD computes the mean squared displacement (Å²) of the selected atoms
// between the first frame and each subsequent frame. It assumes
// displacements between consecutive frames are below half the box
// (positions are unwrapped incrementally).
func MSD(sys *topology.System, frames []*Frame, sel func(i int) bool) []float64 {
	if len(frames) == 0 {
		return nil
	}
	var idx []int
	for i := 0; i < sys.N(); i++ {
		if sel(i) {
			idx = append(idx, i)
		}
	}
	if len(idx) == 0 {
		return make([]float64, len(frames))
	}
	// Unwrap trajectories.
	unwrapped := make([]vec.V3, len(idx))
	prev := make([]vec.V3, len(idx))
	start := make([]vec.V3, len(idx))
	for k, i := range idx {
		unwrapped[k] = frames[0].Pos[i]
		prev[k] = frames[0].Pos[i]
		start[k] = frames[0].Pos[i]
	}
	out := make([]float64, len(frames))
	for fi := 1; fi < len(frames); fi++ {
		sum := 0.0
		for k, i := range idx {
			d := vec.MinImage(frames[fi].Pos[i], prev[k], sys.Box)
			unwrapped[k] = unwrapped[k].Add(d)
			prev[k] = frames[fi].Pos[i]
			sum += unwrapped[k].Sub(start[k]).Norm2()
		}
		out[fi] = sum / float64(len(idx))
	}
	return out
}
