package main

import "gonamd/internal/molgen"

// sizes are the frozen workload dimensions. fullSizes were calibrated
// once on the 2-core reference machine so that a run_seconds window
// holds enough operations for steady medians and the driver's full run
// count fits its time cap (see README.md, "Sizing"). smokeSizes only
// exercise the harness.
type sizes struct {
	setupReps int // set-ups per untraced run; setup_s is their median

	// md-cutoff / md-pme
	mdSide, mdCutoff float64
	mdMinimize       int
	mdWarm, seqWarm  int     // untimed warm-up steps (first list build included)
	pmeGrid          float64 // Å per mesh point

	// serve-jobs
	serveCutoff         float64
	bgSide, probeSide   float64
	bgSteps, probeSteps int64
	jobMinimize         int

	// des-scale: PE counts of the traced sweep, ascending; the first must
	// be 1 and the last is the headline ("1024") count, the two the
	// untraced passes simulate.
	desSpec  func() molgen.Spec
	desPEs   []int
	ldbPEs   int
	ringHops int

	layerReps int // repetitions of each decomposed single-thread call
}

var fullSizes = sizes{
	setupReps: 3,

	mdSide: 48, mdCutoff: 9, mdMinimize: 30, mdWarm: 20, seqWarm: 5, pmeGrid: 1.0,

	serveCutoff: 9, bgSide: 24, probeSide: 16, bgSteps: 150, probeSteps: 50, jobMinimize: 20,

	desSpec: molgen.ApoA1, desPEs: []int{1, 64, 256, 1024}, ldbPEs: 1024, ringHops: 200000,

	layerReps: 7,
}

var smokeSizes = sizes{
	setupReps: 1,

	mdSide: 20, mdCutoff: 6, mdMinimize: 30, mdWarm: 3, seqWarm: 2, pmeGrid: 1.25,

	serveCutoff: 6, bgSide: 14, probeSide: 14, bgSteps: 50, probeSteps: 25, jobMinimize: 20,

	desSpec: molgen.BR, desPEs: []int{1, 8, 16}, ldbPEs: 64, ringHops: 2000,

	layerReps: 2,
}
