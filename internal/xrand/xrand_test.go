package xrand

import (
	"math"
	"testing"
)

func TestDeterminism(t *testing.T) {
	a := New(42)
	b := New(42)
	for i := 0; i < 1000; i++ {
		if a.Uint64() != b.Uint64() {
			t.Fatalf("same seed diverged at draw %d", i)
		}
	}
}

func TestSeedsDiffer(t *testing.T) {
	a := New(1)
	b := New(2)
	same := 0
	for i := 0; i < 100; i++ {
		if a.Uint64() == b.Uint64() {
			same++
		}
	}
	if same > 0 {
		t.Errorf("seeds 1 and 2 produced %d identical draws out of 100", same)
	}
}

func TestFloat64Range(t *testing.T) {
	r := New(7)
	for i := 0; i < 10000; i++ {
		f := r.Float64()
		if f < 0 || f >= 1 {
			t.Fatalf("Float64 = %v out of [0,1)", f)
		}
	}
}

func TestFloat64Mean(t *testing.T) {
	r := New(11)
	const n = 200000
	sum := 0.0
	for i := 0; i < n; i++ {
		sum += r.Float64()
	}
	mean := sum / n
	if math.Abs(mean-0.5) > 0.005 {
		t.Errorf("mean of uniform draws = %v, want ≈ 0.5", mean)
	}
}

func TestIntnBounds(t *testing.T) {
	r := New(3)
	seen := make(map[int]int)
	for i := 0; i < 10000; i++ {
		v := r.Intn(10)
		if v < 0 || v >= 10 {
			t.Fatalf("Intn(10) = %d", v)
		}
		seen[v]++
	}
	for v := 0; v < 10; v++ {
		if seen[v] == 0 {
			t.Errorf("Intn(10) never produced %d", v)
		}
	}
	defer func() {
		if recover() == nil {
			t.Error("Intn(0) did not panic")
		}
	}()
	r.Intn(0)
}

func TestNormFloat64Moments(t *testing.T) {
	r := New(19)
	const n = 200000
	sum, sum2 := 0.0, 0.0
	for i := 0; i < n; i++ {
		x := r.NormFloat64()
		sum += x
		sum2 += x * x
	}
	mean := sum / n
	variance := sum2/n - mean*mean
	if math.Abs(mean) > 0.02 {
		t.Errorf("normal mean = %v, want ≈ 0", mean)
	}
	if math.Abs(variance-1) > 0.03 {
		t.Errorf("normal variance = %v, want ≈ 1", variance)
	}
}

func TestRange(t *testing.T) {
	r := New(9)
	for i := 0; i < 1000; i++ {
		v := r.Range(-3, 5)
		if v < -3 || v >= 5 {
			t.Fatalf("Range(-3,5) = %v", v)
		}
	}
}

func TestStateRoundTrip(t *testing.T) {
	r := New(99)
	for i := 0; i < 57; i++ {
		r.Uint64() // advance to an arbitrary point in the stream
	}
	saved := r.State()
	resumed := FromState(saved)
	for i := 0; i < 100; i++ {
		want, got := r.Uint64(), resumed.Uint64()
		if want != got {
			t.Fatalf("draw %d after restore: %#x, want %#x", i, got, want)
		}
	}
}

func TestStateIsSnapshot(t *testing.T) {
	r := New(7)
	saved := r.State()
	r.Uint64()
	if r.State() == saved {
		t.Error("state did not advance after a draw")
	}
	if FromState(saved).Uint64() != FromState(saved).Uint64() {
		t.Error("same state must reproduce the same next draw")
	}
}
