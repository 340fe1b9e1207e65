// Package trace is the record model of the performance instrumentation,
// modeled on Charm++'s Projections event traces (paper §4.1): the
// simulated machine and the real engines record one ExecRecord per
// entry-method execution into a Log (the engines through a Recorder),
// and the JSON Lines codec saves and loads it. Every aggregate over the
// records — summary profiles, the Table 1 audit, grainsize histograms,
// timelines, utilization — is computed by internal/projections.
package trace

// Category classifies where virtual CPU time goes. Categories mirror the
// columns of the paper's Table 1 audit.
type Category uint8

const (
	CatOther       Category = iota
	CatNonbonded            // nonbonded force computation
	CatBonded               // bonded force computation
	CatIntegration          // patch integration
	CatComm                 // message packing/allocation/send overhead
	CatRecv                 // message receive overhead
	CatExchange             // replica-exchange decision and configuration swap
	CatPME                  // particle-mesh Ewald reciprocal work (spread, FFT, convolution, gather)
	CatFault                // injected fault (drop/duplicate/delay/reorder/crash)
	CatRetry                // reliable-delivery protocol: acks, retransmissions
	CatRecovery             // restart and checkpoint-rollback work
	numCategories  = iota
)

// NumCategories is the number of distinct span categories, for analysis
// code (internal/projections) that keeps fixed-size per-category tables.
const NumCategories = int(numCategories)

// String implements fmt.Stringer.
func (c Category) String() string {
	switch c {
	case CatNonbonded:
		return "nonbonded"
	case CatBonded:
		return "bonded"
	case CatIntegration:
		return "integration"
	case CatComm:
		return "comm"
	case CatRecv:
		return "recv"
	case CatExchange:
		return "exchange"
	case CatPME:
		return "pme"
	case CatFault:
		return "fault"
	case CatRetry:
		return "retry"
	case CatRecovery:
		return "recovery"
	default:
		return "other"
	}
}

// Span is a contiguous stretch of one execution attributed to a category.
type Span struct {
	Cat Category
	Dur float64 // seconds of virtual time
}

// ExecRecord describes one entry-method execution on one processor.
type ExecRecord struct {
	PE    int32
	Obj   int32 // object id, -1 if not object-associated
	Entry string
	Start float64
	End   float64
	Spans []Span
}

// Dur returns the execution's total duration.
func (r ExecRecord) Dur() float64 { return r.End - r.Start }

// Log collects execution records. The zero value is a disabled log that
// discards records; NewLog returns one that collects.
type Log struct {
	Records []ExecRecord
	enabled bool
}

// NewLog returns an enabled log.
func NewLog() *Log { return &Log{enabled: true} }

// Enabled reports whether the log records anything.
func (l *Log) Enabled() bool { return l != nil && l.enabled }

// Add appends a record if the log is enabled. A nil log is valid.
func (l *Log) Add(rec ExecRecord) {
	if l.Enabled() {
		l.Records = append(l.Records, rec)
	}
}

// Reserve ensures capacity for at least n more records without
// reallocation, so hot-path recorders (the real engines' per-step phase
// timers) can append without allocating in the steady state.
func (l *Log) Reserve(n int) {
	if l == nil || cap(l.Records)-len(l.Records) >= n {
		return
	}
	grown := make([]ExecRecord, len(l.Records), len(l.Records)+n)
	copy(grown, l.Records)
	l.Records = grown
}

// Clear drops all records but keeps the log enabled.
func (l *Log) Clear() { l.Records = l.Records[:0] }
