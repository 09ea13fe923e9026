package geom

import (
	"math"
	"math/big"
)

// Error-bound coefficients for the floating-point filters, computed from the
// machine epsilon of IEEE binary64 following Shewchuk. epsilon here is half
// an ulp of 1.0, i.e. 2^-53.
var (
	epsilon        = math.Ldexp(1, -53)
	resultErrBound = (3.0 + 8.0*epsilon) * epsilon
	ccwErrBoundA   = (3.0 + 16.0*epsilon) * epsilon
	iccErrBoundA   = (10.0 + 96.0*epsilon) * epsilon
	iccErrBoundB   = (4.0 + 48.0*epsilon) * epsilon
	iccErrBoundC   = (44.0 + 576.0*epsilon) * epsilon * epsilon
)

// Orient2D returns a positive value if the points a, b, c occur in
// counter-clockwise order, a negative value if they occur in clockwise
// order, and zero if they are collinear. The sign of the result is exact
// for every finite input; the magnitude is an approximation of twice the
// signed triangle area.
func Orient2D(a, b, c Point) float64 {
	acx, bcy := a.X-c.X, b.Y-c.Y
	acy, bcx := a.Y-c.Y, b.X-c.X
	detLeft := acx * bcy
	detRight := acy * bcx
	det := detLeft - detRight

	// A product of two nonzero differences that reads 0 underflowed: its
	// sign is lost, and so is the early answer's.
	var detSum float64
	if detLeft > 0 {
		if detRight <= 0 {
			if detRight == 0 && acy != 0 && bcx != 0 {
				return orient2DUnderflow(a, b, c, det)
			}
			return det
		}
		detSum = detLeft + detRight
	} else if detLeft < 0 {
		if detRight >= 0 {
			if detRight == 0 && acy != 0 && bcx != 0 {
				return orient2DUnderflow(a, b, c, det)
			}
			return det
		}
		detSum = -detLeft - detRight
	} else {
		if detLeft == 0 && acx != 0 && bcy != 0 || detRight == 0 && acy != 0 && bcx != 0 {
			return orient2DUnderflow(a, b, c, det)
		}
		return det
	}
	// The relative error bound holds only while nothing rounds in the
	// subnormal range; below 2^-969 the absolute error of a subnormal
	// product can outweigh it.
	if detSum < 0x1p-969 {
		return orient2DExact(a, b, c)
	}
	errBound := ccwErrBoundA * detSum
	if det >= errBound || -det >= errBound {
		return det
	}
	return orient2DExact(a, b, c)
}

// orient2DUnderflow decides an orientation whose filter lost a product to
// underflow. A finite det means finite coordinates (every coordinate is
// in one of the four differences), which the exact path decides; an
// infinite one came from an overflowed product whose sign is the answer,
// and a NaN from non-finite input, which has none.
func orient2DUnderflow(a, b, c Point, det float64) float64 {
	if math.IsNaN(det) || math.IsInf(det, 0) {
		return det
	}
	return orient2DExact(a, b, c)
}

// orient2DExact evaluates the 2x2 orientation determinant exactly on the
// original (untranslated) coordinates:
//
//	| ax-cx  ay-cy |   = ax*by - ax*cy - ay*bx + ay*cx + bx*cy - by*cx
//	| bx-cx  by-cy |
//
// The expansion products are exact only while no product of two
// coordinates overflows or loses its low half to underflow, which holds
// for coordinates of magnitude in [2^-484, 2^500], or 0. Finite
// coordinates outside that range take exact rational arithmetic instead;
// non-finite ones have no orientation, and get the expansions' answer.
func orient2DExact(a, b, c Point) float64 {
	if !expansionRange(a, b, c) {
		return orient2DRational(a, b, c)
	}
	ar := getArena()
	axby := ar.twoTwoDiff(a.X, b.Y, a.X, c.Y) // ax*by - ax*cy
	aybx := ar.twoTwoDiff(a.Y, c.X, a.Y, b.X) // ay*cx - ay*bx
	bxcy := ar.twoTwoDiff(b.X, c.Y, b.Y, c.X) // bx*cy - by*cx
	det := ar.sum(ar.sum(axby, aybx), bxcy)
	est := expEstimate(det)
	putArena(ar)
	return est
}

// expansionRange reports whether orient2DExact's expansions are exact on
// the coordinates, or cannot be helped: it is false only for finite
// coordinates of which one is nonzero with a magnitude outside
// [2^-484, 2^500].
func expansionRange(a, b, c Point) bool {
	return exactRange(0x1p-484, 0x1p500, [8]float64{a.X, a.Y, b.X, b.Y, c.X, c.Y})
}

// exactRange reports whether every coordinate of vs is 0 or of a
// magnitude in [lo, hi], or one of them is not finite; callers with fewer
// than eight coordinates leave the rest 0. A coordinate of
// magnitude at least 2^e is a multiple of 2^(e-52), so with lo = 2^e every
// product of k coordinates, their differences and the differences' tails
// is a multiple of 2^(k(e-52)): for k(e-52) >= -1074 it is exact wherever
// it lands in the subnormal range, and rounds relatively elsewhere.
func exactRange(lo, hi float64, vs [8]float64) bool {
	ok, finite := true, true
	for _, v := range vs {
		m := math.Abs(v)
		ok = ok && (m == 0 || m >= lo && m <= hi)
		finite = finite && m <= math.MaxFloat64
	}
	return ok || !finite
}

// ratDiff is p - q in exact rational arithmetic.
func ratDiff(p, q float64) *big.Rat {
	d := new(big.Rat).SetFloat64(p)
	return d.Sub(d, new(big.Rat).SetFloat64(q))
}

// orient2DRational is the orientation determinant in exact rational
// arithmetic, rounded to a float64 that keeps its sign.
func orient2DRational(a, b, c Point) float64 {
	left := new(big.Rat).Mul(ratDiff(a.X, c.X), ratDiff(b.Y, c.Y))
	right := new(big.Rat).Mul(ratDiff(a.Y, c.Y), ratDiff(b.X, c.X))
	det := left.Sub(left, right)
	f, _ := det.Float64()
	if f == 0 && det.Sign() != 0 {
		f = float64(det.Sign()) * math.SmallestNonzeroFloat64
	}
	return f
}

// Orient2DSign returns the sign of Orient2D as -1, 0, or +1.
func Orient2DSign(a, b, c Point) int {
	d := Orient2D(a, b, c)
	if d > 0 {
		return 1
	}
	if d < 0 {
		return -1
	}
	return 0
}

// DotSign returns the exact sign of (b-a)·(c-a) as -1, 0, or +1: +1 when
// the angle at a is acute, 0 when it is right (or b or c equals a), -1
// when it is obtuse. The plain floating-point value decides under the
// same forward error bound as Orient2D (a sum of two products of
// differences, where Orient2D has their difference), while the products'
// magnitudes sum to at least 2^-969, as in Orient2D; the rest, exact
// zeros, underflows and overflows included, falls back to the exact
// evaluation on the raw coordinates.
func DotSign(a, b, c Point) int {
	dx := (b.X - a.X) * (c.X - a.X)
	dy := (b.Y - a.Y) * (c.Y - a.Y)
	dot := dx + dy
	if sum := math.Abs(dx) + math.Abs(dy); sum >= 0x1p-969 {
		errBound := ccwErrBoundA * sum
		if dot > errBound {
			return 1
		}
		if -dot > errBound {
			return -1
		}
	}
	return dotSignExact(a, b, c)
}

// dotSignExact evaluates (b-a)·(c-a) exactly on the original coordinates:
//
//	(bx*cx - ax*bx) + (ax*ax - ax*cx) + (by*cy - ay*by) + (ay*ay - ay*cy)
//
// Its products are of two coordinates, as orient2DExact's are, so the
// expansions are exact in expansionRange; finite coordinates outside it
// take exact rational arithmetic instead.
func dotSignExact(a, b, c Point) int {
	if !expansionRange(a, b, c) {
		x := new(big.Rat).Mul(ratDiff(b.X, a.X), ratDiff(c.X, a.X))
		y := new(big.Rat).Mul(ratDiff(b.Y, a.Y), ratDiff(c.Y, a.Y))
		return x.Add(x, y).Sign()
	}
	ar := getArena()
	x := ar.sum(ar.twoTwoDiff(b.X, c.X, a.X, b.X), ar.twoTwoDiff(a.X, a.X, a.X, c.X))
	y := ar.sum(ar.twoTwoDiff(b.Y, c.Y, a.Y, b.Y), ar.twoTwoDiff(a.Y, a.Y, a.Y, c.Y))
	sign := expSign(ar.sum(x, y))
	putArena(ar)
	return sign
}

// InCircle returns a positive value if point d lies inside the circle
// through a, b, c (which must be in counter-clockwise order), a negative
// value if d lies outside, and zero if the four points are cocircular.
// The sign of the result is exact for every finite input; the magnitude
// is an estimate whose precision depends on the stage that decided it, so
// callers read the sign only.
//
// The test is Shewchuk's four-stage adaptive predicate. Stage A is the
// plain floating-point determinant of the translated coordinates under a
// forward error bound: some thirty flops, and the answer for all but a
// fraction of a percent of calls. The other three run only when A cannot
// decide; see inCircleAdapt. Coordinates so small or so large that the
// expansions' products of four of them would under- or overflow are
// decided in exact rational arithmetic instead.
func InCircle(a, b, c, d Point) float64 {
	det, _ := inCircleStaged(a, b, c, d)
	return det
}

// icStage names the stage of the in-circle ladder that decided a call.
// Only tests read it.
type icStage int

const (
	icStageA        icStage = iota // floating-point filter
	icStageB                       // exact on the rounded differences, inside its error bound
	icStageBExact                  // the same value with all six subtraction tails zero: exact outright
	icStageC                       // stage B plus the first-order tail terms
	icStageD                       // full expansion arithmetic on the raw coordinates
	icStageRational                // exact rational arithmetic: coordinates outside inCircleRange
)

// inCircleStaged is InCircle with the deciding stage beside the value.
func inCircleStaged(a, b, c, d Point) (float64, icStage) {
	adx := a.X - d.X
	ady := a.Y - d.Y
	bdx := b.X - d.X
	bdy := b.Y - d.Y
	cdx := c.X - d.X
	cdy := c.Y - d.Y

	bdxcdy := bdx * cdy
	cdxbdy := cdx * bdy
	alift := adx*adx + ady*ady

	cdxady := cdx * ady
	adxcdy := adx * cdy
	blift := bdx*bdx + bdy*bdy

	adxbdy := adx * bdy
	bdxady := bdx * ady
	clift := cdx*cdx + cdy*cdy

	det := alift*(bdxcdy-cdxbdy) + blift*(cdxady-adxcdy) + clift*(adxbdy-bdxady)

	permanent := (math.Abs(bdxcdy)+math.Abs(cdxbdy))*alift +
		(math.Abs(cdxady)+math.Abs(adxcdy))*blift +
		(math.Abs(adxbdy)+math.Abs(bdxady))*clift
	errBound := iccErrBoundA * permanent
	// The relative bound holds only while nothing rounds in the subnormal
	// range. A product that does errs by up to 2^-1075 absolute, scaled by
	// at most a lift, so all of them together err by less than
	// 2^-1070·(alift+blift+clift+1); past this test that is under 2^-110
	// of the permanent, inside the bound's second-order term. An
	// overflowed or NaN permanent fails errBound's test.
	if (det > errBound || -det > errBound) && permanent*0x1p960 >= alift+blift+clift+1 {
		return det, icStageA
	}
	return inCircleAdapt(a, b, c, d, permanent)
}

// inCircleRange reports whether the in-circle ladder behind stage A is
// exact on the coordinates (exactRange with k = 4), or cannot be helped:
// it is false only for finite coordinates of which one is nonzero with a
// magnitude outside [2^-216, 2^250]. Up to 2^250 no degree-4 sum the
// stages form overflows.
func inCircleRange(a, b, c, d Point) bool {
	return exactRange(0x1p-216, 0x1p250, [8]float64{a.X, a.Y, b.X, b.Y, c.X, c.Y, d.X, d.Y})
}

// inCircleAdapt is the part of InCircle behind the stage-A filter.
//
// Stage B evaluates the translated determinant exactly on the rounded
// differences adx..cdy: three 2x2 minors as four-component expansions,
// each scaled twice by its row's coordinates, summed into at most 96
// components (a microsecond or so). Its estimate stands when it clears
// iccErrBoundB*permanent, the bound on what rounding the differences can
// have cost. When all six subtractions were exact — neighbouring
// boundary-layer points share exponents, so this is the common case for
// the cocircular trapezoids two adjacent rays extrude — the rounded
// differences are the differences and the stage-B value is the exact
// determinant, zero included. Stage C adds the first-order terms in the
// subtraction tails in plain floating point under a bound that shrinks
// with epsilon squared. Stage D, inCircleExact, multiplies out the lifted
// 4x4 determinant on the raw coordinates (ten microseconds and up) and is
// reached only when the tails matter beyond first order. All four are
// exact only on coordinates in inCircleRange; outside it the determinant
// is taken in rational arithmetic (inCircleRational) before stage B.
func inCircleAdapt(a, b, c, d Point, permanent float64) (float64, icStage) {
	if !inCircleRange(a, b, c, d) {
		return inCircleRational(a, b, c, d), icStageRational
	}
	adx, adxtail := twoDiff(a.X, d.X)
	ady, adytail := twoDiff(a.Y, d.Y)
	bdx, bdxtail := twoDiff(b.X, d.X)
	bdy, bdytail := twoDiff(b.Y, d.Y)
	cdx, cdxtail := twoDiff(c.X, d.X)
	cdy, cdytail := twoDiff(c.Y, d.Y)

	ar := getArena()
	// lifted returns (px*px + py*py) * m for the minor m of the other two rows.
	lifted := func(m []float64, px, py float64) []float64 {
		return ar.sum(ar.scale(ar.scale(m, px), px), ar.scale(ar.scale(m, py), py))
	}
	adet := lifted(ar.twoTwoDiff(bdx, cdy, cdx, bdy), adx, ady)
	bdet := lifted(ar.twoTwoDiff(cdx, ady, adx, cdy), bdx, bdy)
	cdet := lifted(ar.twoTwoDiff(adx, bdy, bdx, ady), cdx, cdy)
	det := expEstimate(ar.sum(ar.sum(adet, bdet), cdet))
	putArena(ar)

	errBound := iccErrBoundB * permanent
	if det >= errBound || -det >= errBound {
		return det, icStageB
	}
	if adxtail == 0 && adytail == 0 && bdxtail == 0 && bdytail == 0 && cdxtail == 0 && cdytail == 0 {
		return det, icStageBExact
	}

	errBound = iccErrBoundC*permanent + resultErrBound*math.Abs(det)
	det += ((adx*adx+ady*ady)*((bdx*cdytail+cdy*bdxtail)-(bdy*cdxtail+cdx*bdytail)) +
		2*(adx*adxtail+ady*adytail)*(bdx*cdy-bdy*cdx)) +
		((bdx*bdx+bdy*bdy)*((cdx*adytail+ady*cdxtail)-(cdy*adxtail+adx*cdytail)) +
			2*(bdx*bdxtail+bdy*bdytail)*(cdx*ady-cdy*adx)) +
		((cdx*cdx+cdy*cdy)*((adx*bdytail+bdy*adxtail)-(ady*bdxtail+bdx*adytail)) +
			2*(cdx*cdxtail+cdy*cdytail)*(adx*bdy-ady*bdx))
	if det >= errBound || -det >= errBound {
		return det, icStageC
	}
	return inCircleExact(a, b, c, d), icStageD
}

// inCircleExact evaluates the incircle determinant exactly on the original
// coordinates via the 4x4 lifted determinant
//
//	| ax ay ax^2+ay^2 1 |
//	| bx by bx^2+by^2 1 |
//	| cx cy cx^2+cy^2 1 |
//	| dx dy dx^2+dy^2 1 |
//
// expanded along the last column. The sign equals the sign of the
// translated 3x3 determinant used by the fast path.
func inCircleExact(a, b, c, d Point) float64 {
	ar := getArena()
	lift := func(p Point) []float64 {
		x1, x0 := twoProduct(p.X, p.X)
		y1, y0 := twoProduct(p.Y, p.Y)
		return ar.sum(ar.pair(x0, x1), ar.pair(y0, y1))
	}
	la := lift(a)
	lb := lift(b)
	lc := lift(c)
	ld := lift(d)

	// 2x2 minors m[pq] = px*qy - py*qx for all ordered pairs we need.
	mab := ar.twoTwoDiff(a.X, b.Y, a.Y, b.X)
	mac := ar.twoTwoDiff(a.X, c.Y, a.Y, c.X)
	mad := ar.twoTwoDiff(a.X, d.Y, a.Y, d.X)
	mbc := ar.twoTwoDiff(b.X, c.Y, b.Y, c.X)
	mbd := ar.twoTwoDiff(b.X, d.Y, b.Y, d.X)
	mcd := ar.twoTwoDiff(c.X, d.Y, c.Y, d.X)

	// 3x3 minor with rows p,q,r (columns x,y,lift):
	//   lift(p)*m[qr] - lift(q)*m[pr] + lift(r)*m[pq]
	// The minors are read by two later minor3 calls, so the negated
	// products must not negate shared storage: expNeg is applied to the
	// freshly multiplied (arena-private) copies only.
	minor3 := func(lp, lq, lr, mqr, mpr, mpq []float64) []float64 {
		t := ar.mul(lp, mqr)
		t = ar.sum(t, expNeg(ar.mul(lq, mpr)))
		return ar.sum(t, ar.mul(lr, mpq))
	}
	// det = -M(b,c,d) + M(a,c,d) - M(a,b,d) + M(a,b,c)
	mbcd := minor3(lb, lc, ld, mcd, mbd, mbc)
	macd := minor3(la, lc, ld, mcd, mad, mac)
	mabd := minor3(la, lb, ld, mbd, mad, mab)
	mabc := minor3(la, lb, lc, mbc, mac, mab)

	det := ar.sum(expNeg(mbcd), macd)
	det = ar.sum(det, expNeg(mabd))
	det = ar.sum(det, mabc)
	est := expEstimate(det)
	putArena(ar)
	return est
}

// inCircleRational is the in-circle determinant in exact rational
// arithmetic, rounded to a float64 that keeps its sign. The coordinates
// must be finite.
func inCircleRational(a, b, c, d Point) float64 {
	dx, dy := new(big.Rat).SetFloat64(d.X), new(big.Rat).SetFloat64(d.Y)
	// row returns p - d and its lift |p - d|².
	row := func(p Point) (x, y, lift *big.Rat) {
		x = new(big.Rat).SetFloat64(p.X)
		x.Sub(x, dx)
		y = new(big.Rat).SetFloat64(p.Y)
		y.Sub(y, dy)
		lift = new(big.Rat).Mul(x, x)
		lift.Add(lift, new(big.Rat).Mul(y, y))
		return x, y, lift
	}
	minor := func(px, py, qx, qy *big.Rat) *big.Rat {
		m := new(big.Rat).Mul(px, qy)
		return m.Sub(m, new(big.Rat).Mul(py, qx))
	}
	ax, ay, al := row(a)
	bx, by, bl := row(b)
	cx, cy, cl := row(c)
	det := new(big.Rat).Mul(al, minor(bx, by, cx, cy))
	det.Add(det, new(big.Rat).Mul(bl, minor(cx, cy, ax, ay)))
	det.Add(det, new(big.Rat).Mul(cl, minor(ax, ay, bx, by)))
	f, _ := det.Float64()
	if f == 0 && det.Sign() != 0 {
		f = float64(det.Sign()) * math.SmallestNonzeroFloat64
	}
	return f
}

// InCircleSign returns the sign of InCircle as -1, 0, or +1.
func InCircleSign(a, b, c, d Point) int {
	v := InCircle(a, b, c, d)
	if v > 0 {
		return 1
	}
	if v < 0 {
		return -1
	}
	return 0
}
