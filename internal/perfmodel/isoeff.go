package perfmodel

import "math"

// This file reproduces the analytic scaling content of the paper:
//
//   - eqn (10): distributed SMO's parallel overhead To = P·Tp − W,
//   - Table IV: iso-efficiency lower bounds for 1D/2D Mat-Vec-Mul,
//     Dis-SMO, Cascade and DC-SVM,
//   - eqn (8):  W = K·To with K = E/(1−E).
//
// Times are normalised so tc = 1 (ts and tw are ratios of communication
// time to flop time), exactly as §III-A does.

// IsoParams carries the normalised machine/problem constants used by the
// closed-form expressions.
type IsoParams struct {
	Ts float64 // message startup in flop-times
	Tw float64 // per-word transfer in flop-times
	N  int     // features per sample
}

// NormalizedIso converts a Machine into the tc=1 normalisation the paper
// uses.
func NormalizedIso(mc Machine, features int) IsoParams {
	return IsoParams{Ts: mc.Ts / mc.Tc, Tw: mc.Tw / mc.Tc, N: features}
}

// DisSMOOverhead evaluates eqn (10): To = P·Tp − W for one SMO iteration,
// where W = 2mn (tc = 1).
func (ip IsoParams) DisSMOOverhead(m, p int) float64 {
	n := float64(ip.N)
	pf := float64(p)
	logp := math.Log2(pf)
	if logp < 0 {
		logp = 0
	}
	return 14*pf*logp*ip.Ts +
		(2*n*pf*logp+4*pf*pf*pf)*ip.Tw +
		4*float64(m) + 2*pf*pf + n*pf
}

// IsoefficiencyW solves eqn (8), W = K·To(W, P), for the minimum problem
// size W that sustains efficiency e on p processes, by fixed-point
// iteration on m (W = 2mn per SMO iteration). Returns W in flops.
func (ip IsoParams) IsoefficiencyW(e float64, p int) float64 {
	if e <= 0 || e >= 1 {
		panic("perfmodel: efficiency must be in (0,1)")
	}
	k := e / (1 - e)
	n := float64(ip.N)
	m := float64(p) // start from minimum feasible size
	for iter := 0; iter < 200; iter++ {
		to := ip.DisSMOOverhead(int(m), p)
		w := k * to
		newM := w / (2 * n)
		if newM < float64(p) {
			newM = float64(p)
		}
		if math.Abs(newM-m) <= 1e-9*(1+m) {
			m = newM
			break
		}
		m = newM
	}
	return 2 * m * n
}

// IsoBound identifies which asymptotic lower bound of Table IV a method
// obeys.
type IsoBound struct {
	Method       string
	CommExponent float64 // W = Ω(P^CommExponent) from communication
	CompExponent float64 // W bound exponent from computation (0 = Θ(1))
	Note         string
}

// TableIV returns the paper's Table IV: the iso-efficiency lower bounds of
// the compared methods.
func TableIV() []IsoBound {
	return []IsoBound{
		{"1D Mat-Vec-Mul", 2, 0, "W = Ω(P²) comm, Θ(1) comp"},
		{"2D Mat-Vec-Mul", 1, 0, "W = Ω(P) comm, Θ(1) comp"},
		{"Distributed-SMO", 3, 2, "W = Ω(P³) comm, Ω(P²) comp"},
		{"Cascade", 3, math.NaN(), "W = Ω(P³) comm; comp upper-bounded by Σ n·Lk·V(k−1)·2^k"},
		{"DC-SVM", 3, math.NaN(), "W = Ω(P³) comm; comp upper-bounded by Σ n·Lk·m·2^k"},
		{"CA-SVM", 1, 1, "no inter-node communication; W = Θ(P) keeps nodes busy"},
	}
}

// FitExponent estimates b in W ≈ a·P^b from (P, W) samples by least squares
// on log–log values. It is used to verify empirically measured overheads
// against the Table IV exponents.
func FitExponent(ps []int, ws []float64) float64 {
	if len(ps) != len(ws) || len(ps) < 2 {
		return math.NaN()
	}
	var sx, sy, sxx, sxy float64
	n := float64(len(ps))
	for i := range ps {
		x := math.Log(float64(ps[i]))
		y := math.Log(ws[i])
		sx += x
		sy += y
		sxx += x * x
		sxy += x * y
	}
	den := n*sxx - sx*sx
	if den == 0 {
		return math.NaN()
	}
	return (n*sxy - sx*sy) / den
}
