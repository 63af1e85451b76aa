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
// paths need to densify one row. Eval and CrossRow sit on the predict hot
// path, where a per-evaluation make([]float64, n) would dominate the
// allocation profile; a sync.Pool keeps the buffers alive across calls and
// stays safe for the concurrent multi-rank training paths.
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

// fromDot finishes a kernel evaluation given the inner product (and, for
// Gaussian, the squared distance).
func (p Params) fromDot(dot, sqdist float64) float64 {
	switch p.Kind {
	case Linear:
		return dot
	case Polynomial:
		return intPow(p.scaleA()*dot+p.Coef, p.degree())
	case Gaussian:
		return math.Exp(-p.Gamma * sqdist)
	case Sigmoid:
		return math.Tanh(p.scaleA()*dot + p.Coef)
	default:
		panic("kernel: invalid kind")
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

// Eval computes K(row_i of a, row_j of b) where a and b may be the same
// matrix. For the Gaussian kernel both matrices must have cached norms
// (la.Matrix.EnsureNorms) or be dense.
func (p Params) Eval(a *la.Matrix, i int, b *la.Matrix, j int) float64 {
	if p.Kind == Gaussian {
		if a == b {
			return math.Exp(-p.Gamma * a.SqDistRows(i, j))
		}
		// Cross-matrix distance via norms and dot.
		a.EnsureNorms()
		b.EnsureNorms()
		var dot float64
		if a.Sparse() && b.Sparse() {
			ai, av := a.SparseRow(i)
			bi, bv := b.SparseRow(j)
			dot = la.SpDot(ai, av, bi, bv)
		} else if !a.Sparse() && !b.Sparse() {
			dot = la.Dot(a.DenseRow(i), b.DenseRow(j))
		} else {
			// Mixed: densify the b row into a pooled scratch buffer.
			buf := getScratch(b.Features())
			dot = a.DotVec(i, b.RowInto(j, *buf))
			putScratch(buf)
		}
		d := a.SqNormRow(i) + b.SqNormRow(j) - 2*dot
		if d < 0 {
			d = 0
		}
		return math.Exp(-p.Gamma * d)
	}
	var dot float64
	switch {
	case a == b:
		dot = a.DotRows(i, j)
	case a.Sparse() && b.Sparse():
		ai, av := a.SparseRow(i)
		bi, bv := b.SparseRow(j)
		dot = la.SpDot(ai, av, bi, bv)
	case !a.Sparse() && !b.Sparse():
		dot = la.Dot(a.DenseRow(i), b.DenseRow(j))
	default:
		buf := getScratch(b.Features())
		dot = a.DotVec(i, b.RowInto(j, *buf))
		putScratch(buf)
	}
	return p.fromDot(dot, 0)
}

// CrossRow computes dst[i] = K(row_i of a, row_j of b) for every row of a,
// where b may be a different matrix (e.g. a broadcast remote sample in
// distributed SMO). Returns the flop count charged.
func (p Params) CrossRow(a *la.Matrix, b *la.Matrix, j int, dst []float64) float64 {
	m := a.Rows()
	dst = dst[:m]
	if p.Kind == Gaussian {
		a.EnsureNorms()
		b.EnsureNorms()
	}
	var nnzJ int
	if b.Sparse() {
		ji, _ := b.SparseRow(j)
		nnzJ = len(ji)
	} else {
		nnzJ = b.Features()
	}
	switch {
	case a.Sparse() && b.Sparse():
		// The one b row is the reused side: scatter it, gather the rows of a.
		rows := [1]int{j}
		dsts := [1][]float64{dst}
		p.fillSparse(b, rows[:], a, nil, dsts[:], 1)
	case !a.Sparse() && !b.Sparse():
		xj := b.DenseRow(j)
		for i := 0; i < m; i++ {
			if p.Kind == Gaussian {
				dst[i] = math.Exp(-p.Gamma * la.SqDist(a.DenseRow(i), xj))
			} else {
				dst[i] = p.fromDot(la.Dot(a.DenseRow(i), xj), 0)
			}
		}
	default:
		// Mixed storage: densify the single b row once into pooled scratch.
		buf := getScratch(b.Features())
		xj := b.RowInto(j, *buf)
		xjsq := la.SqNorm(xj)
		for i := 0; i < m; i++ {
			if p.Kind == Gaussian {
				dst[i] = math.Exp(-p.Gamma * a.SqDistVec(i, xj, xjsq))
			} else {
				dst[i] = p.fromDot(a.DotVec(i, xj), 0)
			}
		}
		putScratch(buf)
	}
	// Charge actual stored entries on the a side — a.NNZ() is m·Features()
	// for dense but the true nonzero count for sparse, mirroring Tile's
	// nnz-based accounting instead of the dense upper bound.
	return float64(a.NNZ() + (nnzJ+1)*m)
}
