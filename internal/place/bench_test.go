package place_test

import (
	"testing"

	"sara/internal/place"
)

var sink *place.Placement

// BenchmarkPlace times the annealer alone on the two largest benchmark
// designs; allocs/op shows the adjacency stays a fixed handful of slices.
func BenchmarkPlace(b *testing.B) {
	for _, name := range []string{"kmeans", "rf"} {
		d := compiled(b, name, 128, 8)
		b.Run(d.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				p, err := place.Place(d.g, d.m, d.spec, place.Options{})
				if err != nil {
					b.Fatal(err)
				}
				sink = p
			}
		})
	}
}
