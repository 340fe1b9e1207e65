package serve

import (
	"encoding/json"
	"sync"

	"gonamd"
	"gonamd/internal/fanout"
)

// Event is one NDJSON line on a job's event stream.
type Event struct {
	Type string `json:"type"` // "status", "energy", "frame", "summary"
	Job  string `json:"job"`
	Seq  int64  `json:"seq"`            // per-job monotonically increasing
	Step int64  `json:"step,omitempty"` // MD step the event describes

	// status events
	State string `json:"state,omitempty"`
	Note  string `json:"note,omitempty"`

	// energy events (MD jobs)
	Energy *EnergyReport `json:"energy,omitempty"`
	// energy events (ensemble jobs): per-replica potentials, kcal/mol
	Potentials []float64 `json:"potentials,omitempty"`

	// frame events
	Frame *FrameInfo `json:"frame,omitempty"`

	// summary events: the job's Projections report
	Summary json.RawMessage `json:"summary,omitempty"`
}

// EnergyReport is the decomposed energy of an MD job at a step.
type EnergyReport struct {
	Bond        float64 `json:"bond"`
	Angle       float64 `json:"angle"`
	Dihedral    float64 `json:"dihedral"`
	Improper    float64 `json:"improper"`
	VdW         float64 `json:"vdw"`
	Elec        float64 `json:"elec"`
	Kinetic     float64 `json:"kinetic"`
	Potential   float64 `json:"potential"`
	Total       float64 `json:"total"`
	Temperature float64 `json:"temperature_k"`
}

func energyReport(en gonamd.Energies, tempK float64) *EnergyReport {
	return &EnergyReport{
		Bond: en.Bond, Angle: en.Angle, Dihedral: en.Dihedral, Improper: en.Improper,
		VdW: en.VdW, Elec: en.Elec, Kinetic: en.Kinetic,
		Potential: en.Potential(), Total: en.Total(), Temperature: tempK,
	}
}

// FrameInfo announces a trajectory frame (the coordinates themselves are
// served by the trajectory endpoint, not the event stream).
type FrameInfo struct {
	Index  int     `json:"index"` // frame ordinal in the trajectory file
	TimeFs float64 `json:"t_fs"`
}

// ringSize bounds the replay buffer handed to late subscribers; live
// events reach each subscriber over a bounded fan-out channel, and one
// that falls further behind has events dropped (counted, never blocking
// the simulation).
const ringSize = 256

// broker keeps a job's replay ring and fans its events out to any
// number of NDJSON subscribers.
type broker struct {
	mu   sync.Mutex // guards ring and seq, and orders publish against subscribe
	ring []Event
	seq  int64
	fan  fanout.Fanout[Event]
}

// publish stamps the event's sequence number and delivers it to every
// subscriber without blocking.
func (b *broker) publish(ev Event) {
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.fan.Closed() {
		return
	}
	b.seq++
	ev.Seq = b.seq
	b.ring = append(b.ring, ev)
	if len(b.ring) > ringSize {
		b.ring = b.ring[len(b.ring)-ringSize:]
	}
	b.fan.Publish(ev)
}

// close ends every subscriber's stream. Further publishes are ignored.
func (b *broker) close() {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.fan.Close()
}

// subscribe returns the replay of recent events, a live channel (already
// closed if the job is finished), and a cancel function.
func (b *broker) subscribe() (replay []Event, live <-chan Event, cancel func()) {
	b.mu.Lock()
	defer b.mu.Unlock()
	live, cancel = b.fan.Subscribe()
	return append([]Event(nil), b.ring...), live, cancel
}
