package bench

import (
	"strings"
	"testing"

	"gonamd/internal/machine"
)

func TestReferenceCountsMatchFreshBuild(t *testing.T) {
	if testing.Short() {
		t.Skip("full ApoA-I workload build in -short mode")
	}
	w, err := ApoA1Workload()
	if err != nil {
		t.Fatal(err)
	}
	if got := w.Counts(); got != machine.ReferenceCounts {
		t.Errorf("fresh ApoA-I counts %+v differ from machine.ReferenceCounts %+v — recalibrate",
			got, machine.ReferenceCounts)
	}
	// Pin the paper's headline decomposition numbers.
	if np := w.Grid.NumPatches(); np != 245 {
		t.Errorf("ApoA-I patches = %d, want 245", np)
	}
	if w.TotalAtoms != 92224 {
		t.Errorf("ApoA-I atoms = %d, want 92224", w.TotalAtoms)
	}
	// 13 pair computes + 1 self per patch = the paper's "14 times the
	// number of cubes" (3430 for ApoA-I).
	if got := len(w.Pairs) + len(w.Self); got != 3430 {
		t.Errorf("unsplit nonbonded computes = %d, want 3430", got)
	}
}

func TestBRScalingShape(t *testing.T) {
	if testing.Short() {
		t.Skip("cluster sims in -short mode")
	}
	w, err := BRWorkload()
	if err != nil {
		t.Fatal(err)
	}
	rows, err := RunScaling(w, machine.ASCIRed(), []int{1, 8, 64}, 1, 1)
	if err != nil {
		t.Fatal(err)
	}
	// Paper Table 4: 1.47 s at 1 proc. Calibration is from ApoA-I, so
	// this is a genuine cross-system prediction; allow 15%.
	if rows[0].StepTime < 1.25 || rows[0].StepTime > 1.7 {
		t.Errorf("bR 1-proc step %.3f s, paper 1.47 s", rows[0].StepTime)
	}
	if rows[1].Speedup < 6 || rows[1].Speedup > 8.2 {
		t.Errorf("bR 8-proc speedup %.1f, paper 7.5", rows[1].Speedup)
	}
	if rows[2].Speedup < 30 || rows[2].Speedup > 64 {
		t.Errorf("bR 64-proc speedup %.1f, paper 41", rows[2].Speedup)
	}
	out := FormatScaling("test", rows)
	if !strings.Contains(out, "procs") {
		t.Error("FormatScaling missing header")
	}
	out = FormatScaling("test", []ScalingRow{{PEs: 1, StepTime: 1.1, PaperStep: 1}, {PEs: 8, StepTime: 0.1, PaperStep: 0.125}, {PEs: 64, StepTime: 0.01}})
	if want := "s/step vs paper over 2 rows: mean |Δ| 15.0 %, max |Δ| 20.0 % at 8 PEs\n"; !strings.HasSuffix(out, want) {
		t.Errorf("FormatScaling error line against the paper: got\n%s\nwant a last line %q", out, want)
	}
}

func TestRunScalingRejectsMissingBase(t *testing.T) {
	if testing.Short() {
		t.Skip("workload build in -short mode")
	}
	w, err := BRWorkload()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := RunScaling(w, machine.ASCIRed(), []int{2, 4}, 1, 1); err == nil {
		t.Error("missing base PE accepted")
	}
}

func TestAttachPaper(t *testing.T) {
	rows := []ScalingRow{{PEs: 4}, {PEs: 8}}
	ref := [][4]float64{{4, 1.5, 4, 0.2}}
	rows = attachPaper(rows, ref)
	if rows[0].PaperStep != 1.5 || rows[0].PaperSpeedup != 4 || rows[0].PaperGFLOPS != 0.2 {
		t.Errorf("row 0 = %+v", rows[0])
	}
	if rows[1].PaperStep != 0 {
		t.Errorf("row 1 should have no paper data: %+v", rows[1])
	}
	out := FormatScaling("t", rows)
	if !strings.Contains(out, "-") {
		t.Error("missing-paper row should render dashes")
	}
}

func TestFormatAudit(t *testing.T) {
	out := FormatAudit(PaperTable1Ideal, PaperTable1Actual)
	for _, want := range []string{"Table 1", "ideal", "actual", "57.04", "86.00"} {
		if !strings.Contains(out, want) {
			t.Errorf("FormatAudit missing %q:\n%s", want, out)
		}
	}
}

func TestGrainsizeFigures(t *testing.T) {
	if testing.Short() {
		t.Skip("traced ApoA-I sims in -short mode")
	}
	before, err := Figure1()
	if err != nil {
		t.Fatal(err)
	}
	after, err := Figure2()
	if err != nil {
		t.Fatal(err)
	}
	// The paper's story: a heavy upper mode before splitting, none after,
	// and many more (smaller) tasks afterwards.
	if before.Bimodality() < 0.05 {
		t.Errorf("Figure 1 upper-mode fraction %.3f, expected a visible upper mode", before.Bimodality())
	}
	if after.Bimodality() > 0.01 {
		t.Errorf("Figure 2 upper-mode fraction %.3f, want ≈ 0", after.Bimodality())
	}
	if after.MaxVal >= before.MaxVal/3 {
		t.Errorf("splitting reduced max grainsize only %.1f -> %.1f ms", before.MaxVal*1e3, after.MaxVal*1e3)
	}
	if after.N <= before.N {
		t.Errorf("splitting should increase task count: %d -> %d", before.N, after.N)
	}
}
