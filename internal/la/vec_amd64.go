package la

import (
	"math"
	"os"
	"strings"
)

// vectorKernels selects the four-lane assembly behind ExpScaled, UpdateScan,
// Dot4, MulTile's and SqDistTile's dense panels and one-column tiles,
// ExpDistTile's whole-fill panels and ExpDistSum's query panels, and the
// byte scans behind DecodeBase64F64 and QuotedSpan (vec_amd64.s): the
// CPU has AVX2 and FMA, the OS saves YMM state, and the exp lanes agree with
// this process's math.Exp bit for bit.
// The last condition keeps the path exact wherever math.Exp does not run the
// FMA sequence the lanes replay — under GODEBUG=cpu.fma=off, or after a Go
// release changes its algorithm (TestVectorKernelsActive catches the latter).
// GODEBUG=cpu.avx2=off turns the lanes off as it does the standard library's
// AVX2 code, and leaves math.Exp on its FMA branch: the portable loops then
// run against the same kernel values (make lanes-off).
var vectorKernels = cpuHasAVX2FMA() && !godebugCPUOff("avx2") && expProbeAgrees()

func cpuid(leaf, sub uint32) (eax, ebx, ecx, edx uint32)
func xgetbv() (eax uint32)

// expScaledVec replaces x[i] with exp(s·x[i]) four at a time and returns how
// many it replaced: it stops before a tail shorter than four and before the
// first group with a lane outside [−708, 709] or not finite.
//
//go:noescape
func expScaledVec(x []float64, s float64) int

// dotRowsVec sets out[k] = Dot(x, row rows[k] of the row-major m-row dense)
// (row k when rows is nil), rows being len(x) floats long, or, when norms is
// not empty, SqDistOf(xsq, norms[row], that dot); it returns how many it set:
// it stops at the first row index outside [0, m).
//
//go:noescape
func dotRowsVec(x, dense []float64, m int, rows []int, out, norms []float64, xsq float64) int

// updateScanVec runs UpdateScan's update and scan over the first len(f)&^3
// elements and leaves each lane's candidates in e: lane j of group g takes
// the indices k ≡ 4g+j (mod 8), and the first group also a last odd quad.
// The other slices are at least len(f) long.
//
//go:noescape
func updateScanVec(f, rh, rl, outHigh, outLow []float64, ch, cl float64, e *laneExtremes)

// dot4PanelVec sets dst[k*ld + c] = Dot(x_k, b[c*n : c*n+n]) for k < 4 and
// c < w, n being len(x0), or, when bn is not empty, SqDistOf(xn[k], bn[c],
// that dot). x1..x3 hold at least n floats, b at least w·n, dst at least
// 3·ld + w, and xn four and bn w when bn is not empty.
//
//go:noescape
func dot4PanelVec(x0, x1, x2, x3, b []float64, w int, dst []float64, ld int, xn, bn []float64)

// expDistSumVec adds coef[c]·exp(s·SqDistOf(p.xn[k], bn[c], Dot(x_k,
// b[c*n : c*n+n]))) to p.acc[k] for k < 4 and c = 0, 1, … < w in order, n
// being len(x0) and s every lane of p.s, with p.tail[t] holding x0..x3's
// element n&^3 + t, and returns how many columns it added. It takes the
// columns in batches of sumBatch and stops before a batch with a lane whose
// exponent s·d is outside [−708, 709] or not finite, leaving the batch's
// distances in p.d. x1..x3 hold at least n floats, b at least w·n, and bn
// and coef at least w.
//
//go:noescape
func expDistSumVec(x0, x1, x2, x3, b []float64, w int, bn, coef []float64, p *sumPanel) int

// expPanelVec sets dst[k*ld + c] = exp(s·SqDistOf(p.xn[k], bn[c], Dot(x_k,
// b[c*n : c*n+n]))) for k < 4 and c = 0, 1, … < w in order, n being len(x0)
// and s ≤ 0 every lane of p.s, with p.tail[t] holding x0..x3's element
// n&^3 + t, and, when chunks is not empty, stores the same four values at
// column col of row row + c of the mirror rows chunks holds, per rows of ld
// values to a chunk (la.Mirror); it returns how many columns it set. It takes the
// columns in batches of sumBatch and stops before a batch with a lane whose
// exponent s·d is outside [−708, 709] or not finite, leaving the batch's
// exponents in p.d. x1..x3 hold at least n floats, b at least w·n, dst at
// least 3·ld + w, bn w, and every mirror row four values from col on.
//
//go:noescape
func expPanelVec(x0, x1, x2, x3, b []float64, w int, dst []float64, ld int, bn []float64, chunks [][]float64, per, row, col int, p *sumPanel) int

// quotedSpanVec returns n, the index of the first '"' or '\\' in s's whole
// 32-byte blocks (their length when none holds one), and whether a LF or CR
// comes before n.
//
//go:noescape
func quotedSpanVec(s []byte) (n int, ctl bool)

// base64F64Vec decodes src's 32-character standard-base64 blocks into dst,
// three little-endian float64 values each, and returns how many values it
// wrote: it stops before a src tail shorter than 32, when dst has room for
// fewer than three, and before the first block holding a byte outside
// A–Z a–z 0–9 + / or a value with an all-ones exponent (NaN or ±Inf).
//
//go:noescape
func base64F64Vec(dst []float64, src []byte) int

// cpuHasAVX2FMA reports CPUID's AVX, AVX2, FMA and OSXSAVE bits and XCR0's
// SSE and YMM state bits.
func cpuHasAVX2FMA() bool {
	if maxLeaf, _, _, _ := cpuid(0, 0); maxLeaf < 7 {
		return false
	}
	const fma, osxsave, avx = 1 << 12, 1 << 27, 1 << 28
	if _, _, ecx, _ := cpuid(1, 0); ecx&(fma|osxsave|avx) != fma|osxsave|avx {
		return false
	}
	const avx2 = 1 << 5
	if _, ebx, _, _ := cpuid(7, 0); ebx&avx2 == 0 {
		return false
	}
	const sse, ymm = 1 << 1, 1 << 2
	return xgetbv()&(sse|ymm) == sse|ymm
}

// godebugCPUOff reports whether GODEBUG switches CPU feature name off the way
// the runtime reads it: cpu.all or cpu.<name>, the last setting winning.
func godebugCPUOff(name string) bool {
	off := false
	for _, kv := range strings.Split(os.Getenv("GODEBUG"), ",") {
		if k, v, _ := strings.Cut(kv, "="); k == "cpu.all" || k == "cpu."+name {
			off = v == "off"
		}
	}
	return off
}

// expProbeAgrees runs the exp lanes over 1024 arguments spread across
// [−708, 709] and compares them with math.Exp bitwise. math.Exp's FMA and
// non-FMA branches round a good share of such arguments differently, so a
// process whose math.Exp is not the sequence the lanes replay disagrees here.
func expProbeAgrees() bool {
	var x [1024]float64
	for i := range x {
		// Irrational steps: no argument sits on a lattice the two branches
		// happen to agree on.
		f := float64(i) * 0.6180339887498949
		x[i] = -708 + 1417*(f-math.Floor(f))
	}
	got := x
	if expScaledVec(got[:], 1) != len(got) {
		return false
	}
	for i, v := range x {
		if math.Float64bits(got[i]) != math.Float64bits(math.Exp(v)) {
			return false
		}
	}
	return true
}
