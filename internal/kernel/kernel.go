// Package kernel implements the standard SVM kernel functions of the
// paper's Table I — linear, polynomial, Gaussian (RBF) and sigmoid — plus a
// least-recently-used cache of kernel rows, which is the dominant data
// structure of the shared-memory SMO solver.
//
// Kernel evaluations are counted in flops so that the virtual-time machine
// model (internal/perfmodel) can charge computation without timing wall
// clocks.
package kernel

import (
	"fmt"
	"math"
	"sync"

	"casvm/internal/la"
)

// scratch recycles the dense buffers the mixed-storage (sparse×dense)
// Eval needs to densify one row. Eval sits on the predict hot path, where a
// per-evaluation make([]float64, n) would dominate the allocation profile;
// a sync.Pool keeps the buffers alive across calls and stays safe for the
// concurrent multi-rank training paths.
var scratch sync.Pool

// getScratch returns a pooled dense buffer of length n via a stable
// pointer (so returning it to the pool allocates nothing).
func getScratch(n int) *[]float64 {
	if v := scratch.Get(); v != nil {
		p := v.(*[]float64)
		if cap(*p) >= n {
			*p = (*p)[:n]
			return p
		}
	}
	buf := make([]float64, n)
	return &buf
}

func putScratch(p *[]float64) {
	scratch.Put(p)
}

// Kind selects one of the standard kernel functions.
type Kind int

const (
	// Linear is K(x,z) = xᵀz.
	Linear Kind = iota
	// Polynomial is K(x,z) = (a·xᵀz + r)^d.
	Polynomial
	// Gaussian is K(x,z) = exp(−γ‖x−z‖²). This is the kernel the
	// paper's communication-avoiding analysis (§IV-A) assumes.
	Gaussian
	// Sigmoid is K(x,z) = tanh(a·xᵀz + r).
	Sigmoid
)

// String returns the lower-case kernel name used in model files.
func (k Kind) String() string {
	switch k {
	case Linear:
		return "linear"
	case Polynomial:
		return "polynomial"
	case Gaussian:
		return "gaussian"
	case Sigmoid:
		return "sigmoid"
	default:
		return fmt.Sprintf("kernel.Kind(%d)", int(k))
	}
}

// ParseKind converts a kernel name back to its Kind.
func ParseKind(s string) (Kind, error) {
	switch s {
	case "linear":
		return Linear, nil
	case "polynomial", "poly":
		return Polynomial, nil
	case "gaussian", "rbf":
		return Gaussian, nil
	case "sigmoid":
		return Sigmoid, nil
	}
	return 0, fmt.Errorf("kernel: unknown kind %q", s)
}

// Params bundles a kernel function with its hyper-parameters. The zero
// value is a linear kernel.
type Params struct {
	Kind   Kind
	Gamma  float64 // Gaussian: γ
	Coef   float64 // Polynomial/Sigmoid: additive constant r
	ScaleA float64 // Polynomial/Sigmoid: multiplier a (0 means 1)
	Degree int     // Polynomial: d (0 means 3)
}

// RBF returns Gaussian-kernel parameters with the given γ.
func RBF(gamma float64) Params { return Params{Kind: Gaussian, Gamma: gamma} }

// Validate reports whether the parameter set is usable.
func (p Params) Validate() error {
	switch p.Kind {
	case Linear, Polynomial, Gaussian, Sigmoid:
	default:
		return fmt.Errorf("kernel: invalid kind %d", int(p.Kind))
	}
	if p.Kind == Gaussian && p.Gamma <= 0 {
		return fmt.Errorf("kernel: gaussian needs gamma > 0, got %g", p.Gamma)
	}
	if p.Kind == Polynomial && p.Degree < 0 {
		return fmt.Errorf("kernel: negative degree %d", p.Degree)
	}
	return nil
}

func (p Params) scaleA() float64 {
	if p.ScaleA == 0 {
		return 1
	}
	return p.ScaleA
}

func (p Params) degree() int {
	if p.Degree == 0 {
		return 3
	}
	return p.Degree
}

// fromDot finishes a dot-product kernel — every kind but the Gaussian, whose
// value needs the two norms as well (Eval) — from the inner product.
func (p Params) fromDot(dot float64) float64 {
	switch p.Kind {
	case Linear:
		return dot
	case Polynomial:
		return intPow(p.scaleA()*dot+p.Coef, p.degree())
	case Sigmoid:
		return math.Tanh(p.scaleA()*dot + p.Coef)
	default:
		panic("kernel: fromDot of a Gaussian or invalid kind")
	}
}

func intPow(x float64, d int) float64 {
	r := 1.0
	for ; d > 0; d >>= 1 {
		if d&1 == 1 {
			r *= x
		}
		x *= x
	}
	return r
}

// Eval computes K(row_i of a, row_j of b), where a and b may be the same
// matrix. It is the package's one scalar recipe: every fill, tile and column
// here equals it bit for bit. The Gaussian kernel takes its distance from
// the norms identity, la.SqDistOf over the matrices' norm caches (computed
// on first use), whether or not a and b are the same matrix.
func (p Params) Eval(a *la.Matrix, i int, b *la.Matrix, j int) float64 {
	var dot float64
	switch {
	case a.Sparse() && b.Sparse():
		ai, av := a.SparseRow(i)
		bi, bv := b.SparseRow(j)
		dot = la.SpDot(ai, av, bi, bv)
	case !a.Sparse() && !b.Sparse():
		dot = la.Dot(a.DenseRow(i), b.DenseRow(j))
	default:
		// Mixed: densify the b row into a pooled scratch buffer.
		buf := getScratch(b.Features())
		dot = a.DotVec(i, b.RowInto(j, *buf))
		putScratch(buf)
	}
	if p.Kind == Gaussian {
		return math.Exp(-p.Gamma * la.SqDistOf(a.SqNormRow(i), b.SqNormRow(j), dot))
	}
	return p.fromDot(dot)
}
