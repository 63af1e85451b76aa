package la

import "math"

// vectorKernels selects the four-lane assembly behind ExpScaled and
// SqDistRows (vec_amd64.s): the CPU has AVX2 and FMA, the OS saves YMM
// state, and the exp lanes agree with this process's math.Exp bit for bit.
// The last condition keeps the path exact wherever math.Exp does not run the
// FMA sequence the lanes replay — under GODEBUG=cpu.fma=off, or after a Go
// release changes its algorithm (TestVectorKernelsActive catches the latter).
var vectorKernels = cpuHasAVX2FMA() && expProbeAgrees()

func cpuid(leaf, sub uint32) (eax, ebx, ecx, edx uint32)
func xgetbv() (eax uint32)

// expScaledVec replaces x[i] with exp(s·x[i]) four at a time and returns how
// many it replaced: it stops before a tail shorter than four and before the
// first group with a lane outside [−708, 709] or not finite.
//
//go:noescape
func expScaledVec(x []float64, s float64) int

// sqDistRowsVec sets out[k] = SqDist(x, row rows[k] of the row-major m-row
// dense) (row k when rows is nil), rows being len(x) floats long, and returns
// how many it set: it stops at the first row index outside [0, m).
//
//go:noescape
func sqDistRowsVec(x, dense []float64, m int, rows []int32, out []float64) int

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
