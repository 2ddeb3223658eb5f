// Package bspline implements the basis-function machinery behind the
// functional approximation of Sec. 2 of the paper: clamped B-spline bases
// evaluated with the Cox–de Boor recursion (values and derivatives of any
// order), a Fourier basis for periodic data, span-compact design matrices,
// and the roughness-penalty Gram matrices R = ∫ D^q φ_i D^q φ_j dt
// computed exactly with composite Gauss–Legendre quadrature.
package bspline

import (
	"errors"
	"fmt"

	"repro/internal/linalg"
)

// ErrBasis reports an invalid basis specification.
var ErrBasis = errors.New("bspline: invalid basis specification")

// Basis is a finite set of L real-valued functions on a closed interval,
// each differentiable up to the order the construction allows. The mapping
// functions and the smoother of internal/fda are written against this
// interface so B-spline and Fourier systems are interchangeable.
type Basis interface {
	// Dim returns the number of basis functions L.
	Dim() int
	// Domain returns the closed interval [lo, hi] the basis lives on.
	Domain() (lo, hi float64)
	// Eval writes the deriv-th derivative of every basis function at t
	// into out, which must have length Dim. deriv = 0 gives the function
	// values. Points outside the domain are clamped to it.
	Eval(t float64, deriv int, out []float64)
	// Breakpoints returns an increasing sequence of panel boundaries
	// covering the domain on which every basis function is smooth; the
	// quadrature in PenaltyMatrix integrates panel by panel.
	Breakpoints() []float64
}

// PenaltyMatrix returns the L-by-L Gram matrix
// R[i][j] = ∫ D^deriv φ_i(t) · D^deriv φ_j(t) dt over the basis domain,
// the roughness penalty of Eq. 3. The integral is computed with nodes-point
// Gauss–Legendre quadrature on each panel between consecutive breakpoints;
// for B-splines of order k this is exact once nodes >= k − deriv.
func PenaltyMatrix(b Basis, deriv, nodes int) (*linalg.Dense, error) {
	if nodes < 1 {
		return nil, fmt.Errorf("bspline: penalty quadrature needs >=1 node, got %d: %w", nodes, ErrBasis)
	}
	xs, ws, err := GaussLegendre(nodes)
	if err != nil {
		return nil, err
	}
	L := b.Dim()
	r := linalg.NewDense(L, L)
	vals := make([]float64, L)
	bps := b.Breakpoints()
	for p := 0; p+1 < len(bps); p++ {
		a, c := bps[p], bps[p+1]
		if c <= a {
			continue
		}
		half := (c - a) / 2
		mid := (c + a) / 2
		for q, x := range xs {
			t := mid + half*x
			b.Eval(t, deriv, vals)
			w := ws[q] * half
			for i := 0; i < L; i++ {
				vi := vals[i]
				if vi == 0 {
					continue
				}
				ri := r.Row(i)
				for j := i; j < L; j++ {
					ri[j] += w * vi * vals[j]
				}
			}
		}
	}
	// Mirror to the lower triangle.
	for i := 1; i < L; i++ {
		for j := 0; j < i; j++ {
			r.Set(i, j, r.At(j, i))
		}
	}
	return r, nil
}
