//go:build !amd64

package la

// vectorKernels is false off amd64: ExpScaled, SqDistRows and UpdateScan run
// their portable loops, and the lane kernels below are never called.
const vectorKernels = false

func cpuHasAVX2FMA() bool { return false }

func expScaledVec(x []float64, s float64) int { return 0 }

func sqDistRowsVec(x, dense []float64, m int, rows []int32, out []float64) int { return 0 }

func updateScanVec(f, rh, rl, outHigh, outLow []float64, ch, cl float64, e *laneExtremes) {}
