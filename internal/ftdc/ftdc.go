// Package ftdc is the always-on telemetry layer: full-time diagnostic
// data capture in the spirit of MongoDB's FTDC and viam's rdk — compact
// periodic samples of a flat metric vector, cheap enough to leave
// running in production, bridging the per-run Projections traces and
// the long-lived gonamdd service.
//
// The design splits responsibilities so the simulation hot path never
// blocks on telemetry:
//
//   - Producers (the engines, the scheduler) publish current values
//     into a preallocated slot array with one atomic store per field —
//     no locks, no allocation, no syscalls on the step path.
//   - A sampler (a ticker goroutine, or explicit SampleNow calls)
//     reads every slot, derives rates and runtime stats, appends the
//     sample to an in-memory ring, fans it out to subscribers, and
//     hands it to an optional on-disk sink. The sampler reads the
//     slots; it never writes anything a producer reads.
//
// On disk, samples live in a chunked delta-of-delta varint format
// (codec.go) that round-trips float64 values bit-exactly — including
// NaN and ±Inf — with a JSONL fallback (jsonl.go) for tooling that
// wants text. cmd/projections -ftdc renders either form.
package ftdc

// Kind classifies a field for analysis: Gauge fields are point-in-time
// readings (imbalance, queue depth, heap bytes), Counter fields are
// cumulative and monotone between resets (steps, rebuilds, phase
// seconds), so summaries derive rates from them. The on-disk encoding
// is identical for both — every value is a float64, stored bit-exactly.
type Kind uint8

const (
	Gauge Kind = iota
	Counter
)

// Field is one column of the metric vector.
type Field struct {
	Name string `json:"name"`
	Kind Kind   `json:"kind,omitempty"`
}

// Schema names and types the metric vector. It travels in every chunk
// header, so a reader can decode a file with no side channel.
type Schema struct {
	Version int     `json:"version"`
	Fields  []Field `json:"fields"`
}

// SchemaVersion is the current schema wire version.
const SchemaVersion = 1

// NumFields returns the metric vector width.
func (s Schema) NumFields() int { return len(s.Fields) }

// FieldIndex returns the index of the named field, or -1.
func (s Schema) FieldIndex(name string) int {
	for i, f := range s.Fields {
		if f.Name == name {
			return i
		}
	}
	return -1
}

// Sample is one observation of the full metric vector.
type Sample struct {
	// UnixNanos is the sample's wall-clock timestamp.
	UnixNanos int64
	// Values holds one float64 per schema field. Counter fields carry
	// integral values; they are stored as float64 so the vector stays
	// flat and copyable.
	Values []float64
}

// The engine metric vector. Engines publish the step counter, the
// cumulative per-phase busy seconds (from the trace recorder's phase
// accumulators), the list rebuild counter, and the load-imbalance
// gauge on every completed step; the scheduler publishes its queue
// depth; the sampler itself fills the derived steps/sec rate and the
// runtime block (ReadMemStats + goroutine count) at sample cadence
// only, so their cost never touches the step path.
const (
	FieldSteps = iota // cumulative completed steps
	FieldStepsPerSec  // derived by the sampler from FieldSteps deltas
	FieldNonbondedSec // cumulative nonbonded busy seconds
	FieldBondedSec    // cumulative bonded busy seconds
	FieldPMESec       // cumulative PME reciprocal busy seconds
	FieldIntegrateSec // cumulative integration busy seconds
	FieldCommSec      // cumulative reduction/communication busy seconds
	FieldRebuilds     // cumulative cluster list rebuilds
	FieldImbalance    // load imbalance: max/mean worker load - 1 (0 for seq)
	FieldQueueDepth   // scheduler queue depth for the job's tenant
	FieldHeapAlloc    // runtime.MemStats.HeapAlloc, bytes
	FieldTotalAlloc   // runtime.MemStats.TotalAlloc, bytes (cumulative)
	FieldNumGC        // runtime.MemStats.NumGC (cumulative)
	FieldGCPauseNs    // runtime.MemStats.PauseTotalNs (cumulative)
	FieldGoroutines   // runtime.NumGoroutine()
	NumEngineFields
)

// EngineSchema returns the schema both real engines publish under, in
// the Field* constant order.
func EngineSchema() Schema {
	return Schema{
		Version: SchemaVersion,
		Fields: []Field{
			{Name: "steps", Kind: Counter},
			{Name: "steps_per_sec", Kind: Gauge},
			{Name: "nonbonded_s", Kind: Counter},
			{Name: "bonded_s", Kind: Counter},
			{Name: "pme_recip_s", Kind: Counter},
			{Name: "integrate_s", Kind: Counter},
			{Name: "comm_s", Kind: Counter},
			{Name: "rebuilds", Kind: Counter},
			{Name: "imbalance", Kind: Gauge},
			{Name: "queue_depth", Kind: Gauge},
			{Name: "heap_alloc_bytes", Kind: Gauge},
			{Name: "total_alloc_bytes", Kind: Counter},
			{Name: "num_gc", Kind: Counter},
			{Name: "gc_pause_total_ns", Kind: Counter},
			{Name: "goroutines", Kind: Gauge},
		},
	}
}
