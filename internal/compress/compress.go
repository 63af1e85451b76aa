// Package compress reduces a trained model set for serving throughput:
// small-|α| pruning drops support vectors that barely move the decision
// function, and K-means centroid budgeting replaces each class's surviving
// support vectors with a fixed number of centroids whose weight is the
// summed α of their members — predicting via K(x, centroids)·w instead of
// K(x, SV)·α. Prediction cost scales with the centroid budget rather than
// the SV count, which on cluster-structured data buys an order of magnitude
// of throughput for a measured (and metadata-recorded) accuracy delta.
//
// Compression is deterministic: the same input set, budget and seed produce
// a bit-identical reduced set (and therefore the same model hash), because
// the K-means initialisation is drawn from a seeded generator and Lloyd
// sweeps are pure floating-point recurrences.
package compress

import (
	"fmt"
	"math"
	"math/rand"
	"strconv"

	"casvm/internal/kmeans"
	"casvm/internal/la"
	"casvm/internal/model"
)

// Options configures the compression pass.
type Options struct {
	// Budget caps the number of weighted centroids per constituent model
	// (split across the two classes in proportion to their SV counts).
	// 0 disables centroid budgeting; a model already within budget keeps
	// its support vectors untouched.
	Budget int
	// PruneFrac drops support vectors with α < PruneFrac·max(α) before
	// clustering (0 disables pruning). The largest-α vector of each class
	// always survives, so pruning can never silence a class entirely.
	PruneFrac float64
	// Seed drives the K-means initialisation; same seed ⇒ same reduced set.
	Seed int64
}

// lloydSweeps caps the K-means sweeps that place one class's centroids.
const lloydSweeps = 30

// ModelStats describes one constituent model's reduction.
type ModelStats struct {
	SVBefore  int  `json:"sv_before"`
	SVAfter   int  `json:"sv_after"`
	Pruned    int  `json:"pruned"`    // SVs dropped by the α threshold
	Clustered bool `json:"clustered"` // centroid budgeting engaged
}

// Stats summarises a compression pass.
type Stats struct {
	SVBefore int          `json:"sv_before"`
	SVAfter  int          `json:"sv_after"`
	PerModel []ModelStats `json:"per_model"`
}

// Ratio returns SVAfter/SVBefore (1 when the set was empty).
func (s Stats) Ratio() float64 {
	if s.SVBefore == 0 {
		return 1
	}
	return float64(s.SVAfter) / float64(s.SVBefore)
}

// Set compresses every model of s under o, returning a new set (s is never
// mutated) annotated with the compression parameters and SV counts in its
// metadata. Centers, kernel, biases and fallbacks carry over unchanged.
func Set(s *model.Set, o Options) (*model.Set, Stats, error) {
	if o.Budget < 0 || o.PruneFrac < 0 || o.PruneFrac >= 1 {
		return nil, Stats{}, fmt.Errorf("compress: bad options budget=%d prune=%v", o.Budget, o.PruneFrac)
	}
	out := &model.Set{Centers: s.Centers, Models: make([]*model.Model, s.P())}
	st := Stats{PerModel: make([]ModelStats, s.P())}
	for j, m := range s.Models {
		// Each model draws from its own seeded stream, so per-model results
		// do not depend on how many SVs the models before it clustered.
		rng := rand.New(rand.NewSource(o.Seed + int64(j)))
		cm, ms := compressModel(m, o, rng)
		if err := cm.Validate(); err != nil {
			return nil, Stats{}, fmt.Errorf("compress: model %d: %w", j, err)
		}
		out.Models[j] = cm
		st.PerModel[j] = ms
		st.SVBefore += ms.SVBefore
		st.SVAfter += ms.SVAfter
	}
	out.SetMeta("compress_budget", strconv.Itoa(o.Budget))
	out.SetMeta("compress_prune", strconv.FormatFloat(o.PruneFrac, 'g', -1, 64))
	out.SetMeta("compress_seed", strconv.FormatInt(o.Seed, 10))
	out.SetMeta("sv_before", strconv.Itoa(st.SVBefore))
	out.SetMeta("sv_after", strconv.Itoa(st.SVAfter))
	return out, st, nil
}

// Annotate measures full-vs-compressed accuracy on held-out (q, y) and
// embeds both figures and their delta in the compressed set's metadata,
// returning (fullAcc, compressedAcc). Serving surfaces (the /models
// endpoint, casvm-compress) read these annotations back.
func Annotate(compressed, full *model.Set, q *la.Matrix, y []float64) (float64, float64) {
	fullAcc := full.Accuracy(q, y)
	compAcc := compressed.Accuracy(q, y)
	compressed.SetMeta("accuracy_full", strconv.FormatFloat(fullAcc, 'g', -1, 64))
	compressed.SetMeta("accuracy_compressed", strconv.FormatFloat(compAcc, 'g', -1, 64))
	compressed.SetMeta("accuracy_delta", strconv.FormatFloat(fullAcc-compAcc, 'g', -1, 64))
	return fullAcc, compAcc
}

// compressModel reduces one model: α-prune, then per-class centroid
// budgeting when the survivor count exceeds the budget.
func compressModel(m *model.Model, o Options, rng *rand.Rand) (*model.Model, ModelStats) {
	st := ModelStats{SVBefore: m.NSV()}
	if m.NSV() == 0 {
		st.SVAfter = 0
		return &model.Model{
			Kernel: m.Kernel, SVX: m.SVX, SVY: nil, Alpha: nil,
			B: m.B, Fallback: m.Fallback,
		}, st
	}
	keep := pruneIdx(m, o.PruneFrac)
	st.Pruned = m.NSV() - len(keep)

	pos, neg := splitByLabel(m, keep)
	budPos, budNeg := splitBudget(o.Budget, len(pos), len(neg))
	clusterPos := budPos > 0 && len(pos) > budPos
	clusterNeg := budNeg > 0 && len(neg) > budNeg
	if !clusterPos && !clusterNeg {
		// Within budget: the surviving SVs carry over verbatim (original
		// storage kind preserved by Subset).
		cm := &model.Model{
			Kernel: m.Kernel, SVX: m.SVX.Subset(keep),
			SVY: make([]float64, len(keep)), Alpha: make([]float64, len(keep)),
			B: m.B, Fallback: m.Fallback,
		}
		for t, i := range keep {
			cm.SVY[t] = m.SVY[i]
			cm.Alpha[t] = m.Alpha[i]
		}
		st.SVAfter = cm.NSV()
		return cm, st
	}

	// Clustering densifies: centroids are dense means, and mixing one dense
	// class with one sparse class in a single SV matrix is not possible.
	st.Clustered = true
	n := m.SVX.Features()
	var rows []float64
	// Positive class first, then negative: a fixed order keeps the output
	// deterministic and the per-class RNG consumption stable.
	rows = appendClassCentroids(m, pos, budPos, rng, rows)
	rows = appendClassCentroids(m, neg, budNeg, rng, rows)
	z := la.NewDense(len(rows)/n, n, rows)

	// Reduced-set weights: rather than summing member α (which ignores how
	// much the kernel blurs neighbouring centroids), fit w to minimise
	// ‖Σᵢ αᵢyᵢ φ(xᵢ) − Σ_c w_c φ(z_c)‖² in the RKHS — the normal equations
	// are K_zz·w = K_zx·(αy), a tiny SPD solve at the centroid budget.
	w := reducedSetWeights(m, z)
	var svy, alpha []float64
	var kept []int
	for c, wc := range w {
		if wc == 0 {
			continue // a centroid the fit assigns no mass (e.g. empty cluster)
		}
		kept = append(kept, c)
		if wc > 0 {
			svy, alpha = append(svy, 1), append(alpha, wc)
		} else {
			svy, alpha = append(svy, -1), append(alpha, -wc)
		}
	}
	cm := &model.Model{
		Kernel: m.Kernel, SVX: z.Subset(kept),
		SVY: svy, Alpha: alpha, B: m.B, Fallback: m.Fallback,
	}
	st.SVAfter = cm.NSV()
	return cm, st
}

// appendClassCentroids appends one class's reduced vectors (densified): the
// raw SVs when within budget, otherwise K-means centroids.
func appendClassCentroids(m *model.Model, idx []int, budget int, rng *rand.Rand, rows []float64) []float64 {
	if len(idx) == 0 {
		return rows
	}
	n := m.SVX.Features()
	if budget <= 0 || len(idx) <= budget {
		buf := make([]float64, n)
		for _, i := range idx {
			rows = append(rows, m.SVX.RowInto(i, buf)...)
		}
		return rows
	}
	sub := m.SVX.Subset(idx)
	res := kmeans.Run(sub, kmeans.Seed(sub, budget, rng), 0, lloydSweeps)
	for c := 0; c < budget; c++ {
		rows = append(rows, res.Centers.DenseRow(c)...)
	}
	return rows
}

// reducedSetWeights solves the ridge-stabilised normal equations
// (K_zz + λI)·w = K_zx·(αy) for the centroid weights. K_zz is symmetric
// positive semi-definite for the kernels in use; a tiny relative ridge
// keeps the Cholesky factorisation stable when centroids nearly coincide.
// K_zz is one CrossTile block, each entry Eval's (and so symmetric bit for
// bit).
func reducedSetWeights(m *model.Model, z *la.Matrix) []float64 {
	nz := z.Rows()
	k := m.Kernel
	rows := make([]int, nz)
	for i := range rows {
		rows[i] = i
	}
	kzz := make([]float64, nz*nz)
	k.CrossTile(z, rows, z, 0, nz, kzz, nz)
	// λ scaled to the mean diagonal so the ridge is dimensionless.
	trace := 0.0
	for i := 0; i < nz; i++ {
		trace += kzz[i*nz+i]
	}
	lambda := 1e-8 * trace / float64(nz)
	for i := 0; i < nz; i++ {
		kzz[i*nz+i] += lambda
	}
	rhs := make([]float64, nz)
	for c := 0; c < nz; c++ {
		var s float64
		for i := 0; i < m.NSV(); i++ {
			s += m.Alpha[i] * m.SVY[i] * k.Eval(m.SVX, i, z, c)
		}
		rhs[c] = s
	}
	// When the factorisation fails despite the ridge (a degenerate kernel),
	// cholSolve leaves rhs untouched: the weights fall back to the raw
	// projection, which is always usable.
	cholSolve(kzz, rhs, nz)
	return rhs
}

// cholSolve solves A·x = b in place (b becomes x) for symmetric positive
// definite A (n×n row-major, clobbered). Returns false, with b untouched,
// if a pivot is not strictly positive.
func cholSolve(a, b []float64, n int) bool {
	// A = L·Lᵀ, L lower-triangular stored in a.
	for j := 0; j < n; j++ {
		d := a[j*n+j]
		for k := 0; k < j; k++ {
			d -= a[j*n+k] * a[j*n+k]
		}
		if d <= 0 {
			return false
		}
		d = math.Sqrt(d)
		a[j*n+j] = d
		for i := j + 1; i < n; i++ {
			s := a[i*n+j]
			for k := 0; k < j; k++ {
				s -= a[i*n+k] * a[j*n+k]
			}
			a[i*n+j] = s / d
		}
	}
	// Forward substitution L·y = b.
	for i := 0; i < n; i++ {
		s := b[i]
		for k := 0; k < i; k++ {
			s -= a[i*n+k] * b[k]
		}
		b[i] = s / a[i*n+i]
	}
	// Back substitution Lᵀ·x = y.
	for i := n - 1; i >= 0; i-- {
		s := b[i]
		for k := i + 1; k < n; k++ {
			s -= a[k*n+i] * b[k]
		}
		b[i] = s / a[i*n+i]
	}
	return true
}

// pruneIdx returns the surviving SV indices under the α threshold, always
// retaining each class's largest-α vector.
func pruneIdx(m *model.Model, frac float64) []int {
	if frac <= 0 {
		idx := make([]int, m.NSV())
		for i := range idx {
			idx[i] = i
		}
		return idx
	}
	maxA := 0.0
	bestPos, bestNeg := -1, -1
	for i, a := range m.Alpha {
		maxA = math.Max(maxA, a)
		if m.SVY[i] > 0 && (bestPos < 0 || a > m.Alpha[bestPos]) {
			bestPos = i
		}
		if m.SVY[i] < 0 && (bestNeg < 0 || a > m.Alpha[bestNeg]) {
			bestNeg = i
		}
	}
	cut := frac * maxA
	keep := make([]int, 0, m.NSV())
	for i, a := range m.Alpha {
		if a >= cut || i == bestPos || i == bestNeg {
			keep = append(keep, i)
		}
	}
	return keep
}

// splitByLabel partitions the kept indices by their ±1 label.
func splitByLabel(m *model.Model, keep []int) (pos, neg []int) {
	for _, i := range keep {
		if m.SVY[i] > 0 {
			pos = append(pos, i)
		} else {
			neg = append(neg, i)
		}
	}
	return pos, neg
}

// splitBudget divides the centroid budget between the classes in proportion
// to their SV counts, guaranteeing each non-empty class at least one slot.
func splitBudget(budget, npos, nneg int) (int, int) {
	if budget <= 0 {
		return 0, 0
	}
	if npos == 0 {
		return 0, budget
	}
	if nneg == 0 {
		return budget, 0
	}
	if budget < 2 {
		budget = 2 // both classes present: never collapse one to zero
	}
	bp := budget * npos / (npos + nneg)
	if bp < 1 {
		bp = 1
	}
	if bp > budget-1 {
		bp = budget - 1
	}
	return bp, budget - bp
}
