package molgen

import "testing"

// BenchmarkBuild times Build on ApoA-I (protein and lipid placed, then
// most of the box filled with water around them) and on a 48 Å water
// box (water only): the molgen.build_s layer of the repository
// benchmark's set-up.
func BenchmarkBuild(b *testing.B) {
	for _, c := range []struct {
		name string
		spec Spec
	}{{"apoa1", ApoA1()}, {"water48", WaterBox(48, 7)}} {
		b.Run(c.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, _, err := Build(c.spec); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
