// Package metric implements 2×2 symmetric positive-definite Riemannian
// metric tensors and per-vertex metric fields over a mesh — the sizing
// language of anisotropic adaptation. A metric M prescribes, at a point,
// the desired edge length in every direction: an edge vector v has unit
// metric length when sqrt(vᵀMv) = 1, so the eigenvalues of M are 1/h²
// for the two principal spacings h and the eigenvectors are the
// stretching directions. The adaptation engine in internal/adapt drives
// every mesh edge's metric length into the band [1/√2, √2].
//
// All tensor combination here is log-Euclidean (Arsigny et al.):
// interpolation and intersection happen on the matrix logarithm, which
// keeps results SPD and makes intersection symmetric in its arguments.
package metric

import (
	"math"

	"pamg2d/internal/geom"
)

// M is a 2×2 symmetric positive-definite tensor, stored by its unique
// entries. The zero value is not a valid metric; build one with Iso,
// FromEigen, or FromHessian.
type M struct {
	XX, XY, YY float64
}

// Iso returns the isotropic metric prescribing spacing h in every
// direction.
func Iso(h float64) M {
	l := 1 / (h * h)
	return M{XX: l, YY: l}
}

// FromEigen builds the metric with eigenvalue l1 along unit direction
// dir and eigenvalue l2 along its perpendicular. Eigenvalues are 1/h²:
// a larger eigenvalue means a smaller spacing in that direction.
func FromEigen(l1, l2 float64, dir geom.Vec) M {
	c, s := dir.X, dir.Y
	return M{
		XX: l1*c*c + l2*s*s,
		XY: (l1 - l2) * c * s,
		YY: l1*s*s + l2*c*c,
	}
}

// FromSpacings builds the metric prescribing spacing h1 along unit
// direction dir and h2 across it.
func FromSpacings(h1, h2 float64, dir geom.Vec) M {
	return FromEigen(1/(h1*h1), 1/(h2*h2), dir)
}

// Eigen returns the eigenvalues l1 >= l2 and the unit eigenvector of l1.
// The l2 eigenvector is its perpendicular.
func (m M) Eigen() (l1, l2 float64, v1 geom.Vec) {
	half := (m.XX + m.YY) / 2
	disc := math.Hypot((m.XX-m.YY)/2, m.XY)
	l1, l2 = half+disc, half-disc
	if disc == 0 {
		return l1, l2, geom.V(1, 0)
	}
	// The larger-norm candidate column of (M - l2 I) is numerically the
	// stabler eigenvector for l1.
	a := geom.V(m.XX-l2, m.XY)
	b := geom.V(m.XY, m.YY-l2)
	if a.Len2() >= b.Len2() {
		return l1, l2, a.Unit()
	}
	return l1, l2, b.Unit()
}

// Len returns the metric length of the vector v: sqrt(vᵀMv).
func (m M) Len(v geom.Vec) float64 {
	q := m.XX*v.X*v.X + 2*m.XY*v.X*v.Y + m.YY*v.Y*v.Y
	if q <= 0 {
		return 0
	}
	return math.Sqrt(q)
}

// Det returns the determinant.
func (m M) Det() float64 { return m.XX*m.YY - m.XY*m.XY }

// SPD reports whether the tensor is (strictly) symmetric positive
// definite.
func (m M) SPD() bool {
	return m.XX > 0 && m.Det() > 0
}

// Aspect returns the anisotropy ratio h_max/h_min = sqrt(l1/l2) >= 1.
func (m M) Aspect() float64 {
	l1, l2, _ := m.Eigen()
	if l2 <= 0 {
		return math.Inf(1)
	}
	return math.Sqrt(l1 / l2)
}

// mapEigen applies f to both eigenvalues, preserving the eigenbasis.
func (m M) mapEigen(f func(float64) float64) M {
	l1, l2, v1 := m.Eigen()
	return FromEigen(f(l1), f(l2), v1)
}

// Log returns the matrix logarithm (a symmetric, not necessarily
// definite, tensor in the same storage). Eigenvalues must be positive.
func (m M) Log() M { return m.mapEigen(math.Log) }

// Exp returns the matrix exponential, the inverse of Log.
func (m M) Exp() M { return m.mapEigen(math.Exp) }

// Clamp bounds the spacings the metric prescribes: principal spacings
// are clamped to [hmin, hmax] and the anisotropy ratio to maxAspect
// (the wider spacing is shrunk toward the narrow one, preserving the
// resolved direction). Non-positive bounds are ignored.
func (m M) Clamp(hmin, hmax, maxAspect float64) M {
	l1, l2, v1 := m.Eigen()
	lmax, lmin := math.Inf(1), 0.0
	if hmin > 0 {
		lmax = 1 / (hmin * hmin)
	}
	if hmax > 0 {
		lmin = 1 / (hmax * hmax)
	}
	cl := func(l float64) float64 { return math.Min(math.Max(l, lmin), lmax) }
	l1, l2 = cl(l1), cl(l2) // keeps l1 >= l2
	if maxAspect > 1 && l2 > 0 && math.Sqrt(l1/l2) > maxAspect {
		l2 = l1 / (maxAspect * maxAspect)
	}
	return FromEigen(l1, l2, v1)
}

// add returns the entrywise sum (valid on log-space tensors).
func (m M) add(o M) M { return M{m.XX + o.XX, m.XY + o.XY, m.YY + o.YY} }

// scale returns the entrywise scaling (valid on log-space tensors).
func (m M) scale(s float64) M { return M{m.XX * s, m.XY * s, m.YY * s} }

// posPart zeroes the negative eigenvalues of a symmetric (possibly
// indefinite) tensor.
func (m M) posPart() M {
	return m.mapEigen(func(l float64) float64 { return math.Max(l, 0) })
}

// Interp returns the log-Euclidean geodesic interpolation
// exp((1-t)·log a + t·log b); t=0 gives a, t=1 gives b.
func Interp(a, b M, t float64) M {
	return a.Log().scale(1 - t).add(b.Log().scale(t)).Exp()
}

// Intersect returns the log-Euclidean supremum of two metrics: the
// smallest log-space tensor dominating both, exp(log a ⊔ log b). The
// result prescribes, in every direction, a spacing no larger than
// either argument's, and the operation is symmetric and idempotent.
func Intersect(a, b M) M {
	la, lb := a.Log(), b.Log()
	diff := M{lb.XX - la.XX, lb.XY - la.XY, lb.YY - la.YY}
	return la.add(diff.posPart()).Exp()
}

// EdgeLen returns the metric length of the edge p→q under the linearly
// varying metric with endpoint values mp and mq, using the standard
// geometric-mean quadrature (la - lb)/ln(la/lb) that is exact for a
// geometrically interpolated spacing along the edge.
func EdgeLen(p, q geom.Point, mp, mq M) float64 {
	v := q.Sub(p)
	la, lb := mp.Len(v), mq.Len(v)
	if la <= 0 || lb <= 0 {
		return math.Max(la, lb)
	}
	r := la / lb
	if r > 0.999 && r < 1.001 {
		return (la + lb) / 2
	}
	return (la - lb) / math.Log(r)
}

// TriQuality returns the metric-space shape quality of the triangle
// (a,b,c) in (0,1]: 4√3·area_M / Σ l_i², which is 1 for an equilateral
// triangle in the metric and tends to 0 as the element degenerates.
// The metric over the element is the log-Euclidean mean of the three
// vertex tensors.
func TriQuality(a, b, c geom.Point, ma, mb, mc M) float64 {
	return TriQualityLog(a, b, c, ma, mb, mc, ma.Log(), mb.Log(), mc.Log())
}

// TriQualityLog is TriQuality for a caller that already holds the matrix
// logarithms la, lb, lc of the vertex tensors (internal/adapt caches one
// per vertex). It measures the three edges and hands them to
// TriQualityLens, so the forms agree bit for bit whenever each l equals
// its tensor's Log().
func TriQualityLog(a, b, c geom.Point, ma, mb, mc, la, lb, lc M) float64 {
	return TriQualityLens(a, b, c, la, lb, lc, EdgeLen(a, b, ma, mb), EdgeLen(b, c, mb, mc), EdgeLen(c, a, mc, ma))
}

// TriQualityLens is the one quality implementation, for a caller that also
// holds the directed edge lengths lab = EdgeLen(a, b, ma, mb), lbc and lca
// (internal/adapt caches them per triangle).
func TriQualityLens(a, b, c geom.Point, la, lb, lc M, lab, lbc, lca float64) float64 {
	return quality(logMean(la, lb, lc).Exp(), a, b, c, lab, lbc, lca)
}

// TriQualityRotations returns, for each rotation r, the quality of the
// triangle taken from p[r]: TriQualityLens(p[r], p[r+1], p[r+2], lg[r],
// lg[r+1], lg[r+2], l[r], l[r+1], l[r+2]) bit for bit, indices mod 3, where
// l[e] is the directed length of edge p[e]→p[e+1]. The rotated log sums
// usually agree in every bit, so each distinct sum is exponentiated once.
func TriQualityRotations(p [3]geom.Point, lg [3]M, l [3]float64) (q [3]float64) {
	var sum, mean [3]M
	for r := 0; r < 3; r++ {
		sum[r] = logMean(lg[r], lg[(r+1)%3], lg[(r+2)%3])
		k := 0
		for k < r && !sameBits(sum[k], sum[r]) {
			k++
		}
		if k == r {
			mean[r] = sum[r].Exp()
		} else {
			mean[r] = mean[k]
		}
		q[r] = quality(mean[r], p[r], p[(r+1)%3], p[(r+2)%3], l[r], l[(r+1)%3], l[(r+2)%3])
	}
	return q
}

// logMean is the log-Euclidean mean of three log tensors, summed in
// argument order: the order moves low bits.
func logMean(la, lb, lc M) M { return la.add(lb).add(lc).scale(1.0 / 3) }

// sameBits reports whether two tensors agree in every bit (so +0 and -0
// differ, and a NaN entry equals itself).
func sameBits(a, b M) bool {
	return math.Float64bits(a.XX) == math.Float64bits(b.XX) &&
		math.Float64bits(a.XY) == math.Float64bits(b.XY) &&
		math.Float64bits(a.YY) == math.Float64bits(b.YY)
}

// quality is 4√3·area_M / Σ l² for the element metric mean (the
// exponentiated log mean) and the three edge lengths.
func quality(mean M, a, b, c geom.Point, lab, lbc, lca float64) float64 {
	// sqrt(det(exp L)) = exp(tr L / 2) on paper; the Exp → Det path stays
	// because the shortcut changes the low bits, and with them the mesh.
	area := geom.TriangleArea(a, b, c)
	if area <= 0 {
		return 0
	}
	areaM := math.Sqrt(mean.Det()) * area
	den := lab*lab + lbc*lbc + lca*lca
	if den <= 0 {
		return 0
	}
	return 4 * math.Sqrt(3) * areaM / den
}
