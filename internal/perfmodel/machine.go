// Package perfmodel holds the analytic performance machinery of the paper:
// the machine parameters (tc, ts, tw) used to normalise computation and
// communication, the α–β per-hop cost (PtoP) that drives the virtual
// clocks of internal/mpi, the iso-efficiency functions of Table IV, and the
// communication-volume formulas of Table X.
package perfmodel

// Machine describes the cost parameters of the simulated cluster, in the
// notation of the paper's Table II. All values are seconds.
//
// Tc is the time per flop; Ts the startup (latency) cost of one message; Tw
// the per-4-byte-word transfer time. The defaults are Hopper-like: ~10
// Gflop/s effective per node, ~1.5 µs MPI latency, ~6 GB/s injection
// bandwidth.
type Machine struct {
	Tc float64 // seconds per flop
	Ts float64 // seconds per message startup
	Tw float64 // seconds per 4-byte word
}

// Hopper returns the default machine parameters used throughout the
// benchmarks (a NERSC Hopper-like node: Cray XE6, Gemini interconnect).
func Hopper() Machine {
	return Machine{
		Tc: 1e-10,   // 10 Gflop/s per node
		Ts: 1.5e-6,  // 1.5 µs latency
		Tw: 6.7e-10, // ≈ 6 GB/s → 4 B / 6e9 B/s
	}
}

// Edison returns machine parameters for a NERSC Edison-like node (Cray XC30,
// Aries interconnect): faster cores, lower latency, higher bandwidth.
func Edison() Machine {
	return Machine{
		Tc: 5e-11,  // 20 Gflop/s per node
		Ts: 1.0e-6, // 1 µs latency
		Tw: 5e-10,  // ≈ 8 GB/s
	}
}

// PtoP returns the modeled time to move nbytes between two ranks.
func (mc Machine) PtoP(nbytes int) float64 {
	if nbytes < 0 {
		nbytes = 0
	}
	return mc.Ts + mc.Tw*float64(nbytes)/4
}

// Compute returns the modeled time of f flops on one node.
func (mc Machine) Compute(flops float64) float64 { return mc.Tc * flops }
