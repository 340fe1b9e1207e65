package serve

import (
	"bytes"
	"fmt"
	"os"
	"reflect"
	"testing"

	"gonamd"
	"gonamd/internal/ckpt"
)

// TestTrajectoryIndependentOfCheckpointCadence: taking a checkpoint does
// not touch the engine, so a job checkpointed every step, every seven
// steps or only at its end writes the same trajectory file, byte for
// byte, and ends in the same engine state. Seven lands mid-way through a
// PME MTS cycle, a rescale interval and a cluster list's lifetime; 400
// steps of 1 fs are enough for a list rebuilt at every checkpoint, rather
// than replayed, to change the bits of every job here.
func TestTrajectoryIndependentOfCheckpointCadence(t *testing.T) {
	const steps = 400
	langevin := &gonamd.ThermostatSpec{Kind: "langevin", Temperature: 300, Seed: 4}
	rescale := &gonamd.ThermostatSpec{Kind: "rescale", Temperature: 300, Interval: 5}
	engines := []struct {
		name string
		spec gonamd.EngineSpec
	}{
		{"seq-cluster-4x8", gonamd.EngineSpec{ClusterM: 4, ClusterN: 8}},
		{"par-cluster-w2", gonamd.EngineSpec{Engine: "par", Workers: 2}},
		{"pme-mts2", gonamd.EngineSpec{ClusterM: 4, ClusterN: 8, PME: &gonamd.PMESpec{GridSpacing: 1, MTSPeriod: 2}}},
		{"langevin", gonamd.EngineSpec{Engine: "par", Workers: 2, Thermostat: langevin}},
		{"rescale", gonamd.EngineSpec{ClusterM: 4, ClusterN: 8, Thermostat: rescale}},
	}
	dir := t.TempDir()
	s := newTestScheduler(t, Config{StateDir: dir, Workers: 2, SliceSteps: 10})
	defer s.Stop()
	for _, eng := range engines {
		t.Run(eng.name, func(t *testing.T) {
			var trajs [][]byte
			var finals []*ckpt.EngineState
			for _, k := range []int64{1, 7, 1 << 20} {
				spec := waterJob(steps)
				spec.Minimize = 10
				spec.Dt = 1
				spec.FrameEvery = 1
				spec.CheckpointEvery = k
				spec.Engine = eng.spec
				st, err := s.Submit(spec)
				if err != nil {
					t.Fatal(err)
				}
				if done := waitState(t, s, st.ID, StateDone); done.Step != steps {
					t.Fatalf("k=%d: finished at step %d", k, done.Step)
				}
				traj, err := os.ReadFile(jobPath(dir, st.ID, "traj"))
				if err != nil {
					t.Fatal(err)
				}
				snap, err := ckpt.LoadJobFile(jobPath(dir, st.ID, "ckpt"))
				if err != nil {
					t.Fatal(err)
				}
				trajs, finals = append(trajs, traj), append(finals, snap.Engine)
			}
			for i, k := range []string{"7", fmt.Sprint(1 << 20)} {
				if !bytes.Equal(trajs[0], trajs[i+1]) {
					t.Errorf("trajectory checkpointed every %s steps differs from every step", k)
				}
				if !reflect.DeepEqual(finals[0], finals[i+1]) {
					t.Errorf("final engine state checkpointed every %s steps differs from every step", k)
				}
			}
		})
	}
}
