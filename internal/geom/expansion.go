package geom

// Floating-point expansion arithmetic after Shewchuk, "Adaptive Precision
// Floating-Point Arithmetic and Fast Robust Geometric Predicates" (1997).
//
// An expansion is a sum of floating-point components stored in order of
// increasing magnitude, where the components are nonoverlapping. The exact
// value of the expansion is the exact sum of its components, so arbitrary
// exact values produced by +, -, * on doubles can be represented and their
// signs determined without error.

// twoSum computes a+b exactly as x (rounded sum) plus y (roundoff).
func twoSum(a, b float64) (x, y float64) {
	x = a + b
	bv := x - a
	av := x - bv
	br := b - bv
	ar := a - av
	return x, ar + br
}

// fastTwoSum computes a+b exactly when |a| >= |b|.
func fastTwoSum(a, b float64) (x, y float64) {
	x = a + b
	bv := x - a
	return x, b - bv
}

// twoDiff computes a-b exactly as x (rounded difference) plus y (roundoff).
func twoDiff(a, b float64) (x, y float64) {
	x = a - b
	bv := a - x
	av := x + bv
	br := bv - b
	ar := a - av
	return x, ar + br
}

// splitter is 2^27+1 for IEEE binary64; used by split.
const splitter = 134217729.0

// split breaks a into hi and lo halves with at most 26 nonzero bits each,
// such that a = hi + lo exactly.
func split(a float64) (hi, lo float64) {
	c := splitter * a
	big := c - a
	hi = c - big
	lo = a - hi
	return hi, lo
}

// twoProduct computes a*b exactly as x (rounded product) plus y (roundoff).
func twoProduct(a, b float64) (x, y float64) {
	x = a * b
	ahi, alo := split(a)
	bhi, blo := split(b)
	e1 := x - ahi*bhi
	e2 := e1 - alo*bhi
	e3 := e2 - ahi*blo
	return x, alo*blo - e3
}

// expNeg negates expansion e in place and returns it.
func expNeg(e []float64) []float64 {
	for i := range e {
		e[i] = -e[i]
	}
	return e
}

// expEstimate returns a floating-point approximation of expansion e.
func expEstimate(e []float64) float64 {
	var s float64
	for _, c := range e {
		s += c
	}
	return s
}

// expSign returns the sign of the exact value of expansion e: -1, 0 or +1.
// The most significant (last) nonzero component carries the sign.
func expSign(e []float64) int {
	for i := len(e) - 1; i >= 0; i-- {
		if e[i] > 0 {
			return 1
		}
		if e[i] < 0 {
			return -1
		}
	}
	return 0
}
