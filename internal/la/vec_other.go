//go:build !amd64

package la

// vectorKernels is false off amd64: ExpScaled, UpdateScan, Dot4 and
// MulTile run their portable loops, DecodeBase64F64 decodes nothing, and the
// lane kernels below are never called.
const vectorKernels = false

func cpuHasAVX2FMA() bool { return false }

func expScaledVec(x []float64, s float64) int { return 0 }

func dotRowsVec(x, dense []float64, m int, rows []int, out, norms []float64, xsq float64) int {
	return 0
}

func updateScanVec(f, rh, rl, outHigh, outLow []float64, ch, cl float64, e *laneExtremes) {}

func dot4PanelVec(x0, x1, x2, x3, b []float64, w int, dst []float64, ld int) {}

func base64F64Vec(dst []float64, src []byte) int { return 0 }
