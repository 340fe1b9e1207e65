package core

import (
	"fmt"

	"gonamd/internal/machine"
	"gonamd/internal/projections"
)

// IdealAudit returns the audit a perfectly-scaling machine would show:
// the sequential component times divided by the processor count, with no
// overhead, imbalance, or idle time.
func IdealAudit(m *machine.Model, c machine.Counts, npe int) projections.Audit {
	p := float64(npe)
	return projections.Audit{
		Total:       m.SeqTime(c) / p,
		Nonbonded:   m.NonbondedTime(c) / p,
		Bonded:      m.BondedTime(c) / p,
		Integration: m.IntegrationTime(c) / p,
	}
}

// MeasuredAudit extracts the actual audit from a traced result: the
// projections audit of its measured window. It returns an error if the
// result carries no trace.
func (r *Result) MeasuredAudit() (projections.Audit, error) {
	if r.Trace == nil || len(r.Trace.Records) == 0 {
		return projections.Audit{}, fmt.Errorf("core: result has no trace (set Config.CollectTrace)")
	}
	return projections.MeasureAudit(r.Trace, r.PEs, r.MeasureT0, r.MeasureT1, len(r.StepDurations), r.AvgStep), nil
}
