package growth_test

import (
	"fmt"

	"pamg2d/internal/growth"
)

// ExampleGeometric shows a typical boundary-layer growth function: first
// layer 1e-4 chords, growing 25% per layer.
func ExampleGeometric() {
	g := growth.Geometric{H0: 1e-4, Ratio: 1.25}
	for _, i := range []int{0, 5, 10} {
		fmt.Printf("layer %2d: offset %.5f spacing %.5f\n", i, g.Offset(i), g.Spacing(i))
	}
	// Output:
	// layer  0: offset 0.00010 spacing 0.00010
	// layer  5: offset 0.00113 spacing 0.00031
	// layer 10: offset 0.00426 spacing 0.00093
}
