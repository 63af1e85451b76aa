package perfmodel

// Communication-volume model of the paper's Table X. Each formula predicts
// the total bytes a method moves over the network for one training run,
// given the problem shape. Terms (Table II):
//
//	m — training samples, n — features, p — processes,
//	s — support vectors of the final model, I — SMO iterations,
//	k — K-means iterations.
//
// Every word is 4 bytes (the original code transfers single-precision
// floats; this repository's wire format does too — see internal/la).

// VolumeInput bundles the problem-shape terms the formulas consume.
type VolumeInput struct {
	M, N, P int
	S       int // support vectors
	I       int // SMO iterations (Dis-SMO)
	K       int // K-means iterations
}

// Word is the wire word size in bytes.
const Word = 4

// DisSMOVolume predicts Θ(26·I·p + 2·p·m + 4·m·n) words for distributed
// SMO: per-iteration allreduce/broadcast traffic plus the initial
// distribution of the data. It is the paper's prediction for
// the paper's four-collective loop; internal/core's fused, row-eliding
// exchange measures below it (DESIGN.md §10).
func DisSMOVolume(in VolumeInput) int {
	return Word * (26*in.I*in.P + 2*in.P*in.M + 4*in.M*in.N)
}

// CascadeVolume predicts O(3·m·n + 3·m + 3·s·n) words: samples ascend the
// reduction tree shrinking to SVs.
func CascadeVolume(in VolumeInput) int {
	return Word * (3*in.M*in.N + 3*in.M + 3*in.S*in.N)
}

// DCSVMVolume predicts Θ(9·m·n + 12·m + 2·k·p·n) words: all samples travel
// layer to layer plus the K-means center exchanges.
func DCSVMVolume(in VolumeInput) int {
	return Word * (9*in.M*in.N + 12*in.M + 2*in.K*in.P*in.N)
}

// DCFilterVolume predicts O(6·m·n + 7·m + 3·s·n + 2·k·p·n) words.
func DCFilterVolume(in VolumeInput) int {
	return Word * (6*in.M*in.N + 7*in.M + 3*in.S*in.N + 2*in.K*in.P*in.N)
}

// CPSVMVolume predicts Θ(6·m·n + 7·m + 2·k·p·n) words: the K-means
// partition and scatter, with no combining phase.
func CPSVMVolume(in VolumeInput) int {
	return Word * (6*in.M*in.N + 7*in.M + 2*in.K*in.P*in.N)
}

// CASVMVolume is identically zero: casvm2 places data on the owning nodes
// and never communicates during training.
func CASVMVolume(VolumeInput) int { return 0 }

// VolumeByMethod evaluates the Table X formula for the named method
// ("dissmo", "cascade", "dcsvm", "dcfilter", "cpsvm", "casvm"). Unknown
// names return -1.
func VolumeByMethod(method string, in VolumeInput) int {
	switch method {
	case "dissmo":
		return DisSMOVolume(in)
	case "cascade":
		return CascadeVolume(in)
	case "dcsvm":
		return DCSVMVolume(in)
	case "dcfilter":
		return DCFilterVolume(in)
	case "cpsvm":
		return CPSVMVolume(in)
	case "casvm":
		return CASVMVolume(in)
	default:
		return -1
	}
}
