package projections

import (
	"fmt"

	"gonamd/internal/trace"
)

// Audit is the paper's Table 1 performance accounting: where each
// processor's share of a timestep goes, averaged over the measured steps.
// All values are seconds per step per processor, and the components sum
// to Total.
type Audit struct {
	Total       float64
	Nonbonded   float64
	Bonded      float64
	Integration float64
	Overhead    float64 // message allocation/packing/send (CatComm) and every other category
	Imbalance   float64 // max per-PE busy time minus the average
	Idle        float64 // remaining idle time
	Receives    float64 // message receive overhead (CatRecv)
}

// MeasureAudit accumulates the Table 1 audit of the records of l that
// overlap the measured window [t0, t1): steps steps averaging stepTime
// seconds each on npe PEs. A PE's busy time is the sum of its record
// durations and each column sums span durations, so — unlike the
// Analyzer, which charges the rounding residue between the two to
// "other" — no column picks up sub-ulp noise from the absolute time axis.
func MeasureAudit(l *trace.Log, npe int, t0, t1 float64, steps int, stepTime float64) Audit {
	a := Audit{Total: stepTime}
	busy := make([]float64, npe)
	for _, rec := range l.Records {
		if rec.End <= t0 || rec.Start >= t1 {
			continue
		}
		busy[rec.PE] += rec.Dur()
		for _, sp := range rec.Spans {
			switch sp.Cat {
			case trace.CatNonbonded:
				a.Nonbonded += sp.Dur
			case trace.CatBonded:
				a.Bonded += sp.Dur
			case trace.CatIntegration:
				a.Integration += sp.Dur
			case trace.CatRecv:
				a.Receives += sp.Dur
			default:
				a.Overhead += sp.Dur
			}
		}
	}
	for _, col := range []*float64{&a.Nonbonded, &a.Bonded, &a.Integration, &a.Overhead, &a.Receives} {
		*col /= float64(steps) * float64(npe)
	}

	maxBusy, totBusy := 0.0, 0.0
	for _, b := range busy {
		totBusy += b
		maxBusy = max(maxBusy, b)
	}
	avgBusy := totBusy / float64(npe)
	a.Imbalance = (maxBusy - avgBusy) / float64(steps)
	a.Idle = max(0, a.Total-avgBusy/float64(steps)-a.Imbalance)
	return a
}

// String renders the audit as one row of the paper's Table 1.
func (a Audit) String() string {
	ms := func(x float64) float64 { return x * 1e3 }
	return fmt.Sprintf("total=%.2fms nonbonded=%.2f bonds=%.2f integration=%.2f overhead=%.2f imbalance=%.2f idle=%.2f receives=%.2f",
		ms(a.Total), ms(a.Nonbonded), ms(a.Bonded), ms(a.Integration), ms(a.Overhead), ms(a.Imbalance), ms(a.Idle), ms(a.Receives))
}
