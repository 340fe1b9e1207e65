package ldb

import "testing"

// Strategy benchmarks at NAMD scale: ~12k objects on 1024 PEs (the
// ApoA-I 1024-processor balancing problem).

func benchProblem(npe int) *Problem {
	return randomProblem(42, npe, npe/2+8, 12*npe)
}

// benchMap times one strategy's Map on p at the given pass.
func benchMap(b *testing.B, s Strategy, p *Problem, pass int) {
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.Map(p, pass)
	}
}

func BenchmarkGreedy1024(b *testing.B) {
	benchMap(b, &Greedy{}, benchProblem(1024), 0)
}

func BenchmarkRefine1024(b *testing.B) {
	p := benchProblem(1024)
	assign := (&Greedy{}).Map(p, 0)
	for i := range p.Objects {
		p.Objects[i].PE = assign[i]
	}
	benchMap(b, &Refine{}, p, 0)
}

// BenchmarkGreedyRefine1024 is the composite as the cluster simulation
// runs it on its first pass: greedy from scratch, then refinement.
func BenchmarkGreedyRefine1024(b *testing.B) {
	benchMap(b, &GreedyRefine{}, benchProblem(1024), 0)
}

func BenchmarkDiffusion1024(b *testing.B) {
	benchMap(b, &Diffusion{}, benchProblem(1024), 0)
}

func BenchmarkHierarchical1024(b *testing.B) {
	benchMap(b, &Hierarchical{}, benchProblem(1024), 0)
}

func BenchmarkHierarchical2048(b *testing.B) {
	benchMap(b, &Hierarchical{}, benchProblem(2048), 0)
}
