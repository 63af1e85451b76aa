package core

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"

	"casvm/internal/model"
	"casvm/internal/trace"
	"casvm/internal/trace/critpath"
)

// ModelHash returns the SHA-256 hex digest of the serialized model set. The
// save format is fully deterministic, so the hash is a reproducibility
// fingerprint: two runs with the same data, parameters and seed produce the
// same hash regardless of Threads (the solver is bit-identical under
// shared-memory parallelism).
func ModelHash(s *model.Set) (string, error) {
	h := sha256.New()
	if err := model.SaveSet(h, s); err != nil {
		return "", fmt.Errorf("core: hashing model: %w", err)
	}
	return hex.EncodeToString(h.Sum(nil)), nil
}

// BuildReport assembles the structured run report for a finished training
// run: parameters, machine constants, the phase/time split, communication
// volumes, fault outcome, and the model fingerprint. Timeline phases and
// metrics are attached when the caller wired them into Params; dataset and
// accuracy are caller-supplied annotations (zero values omit them).
func BuildReport(out *Output, p Params, dataset string, accuracy float64) (*trace.Report, error) {
	st := out.Stats
	r := &trace.Report{
		Method:  string(st.Method),
		Dataset: dataset,
		P:       st.P,
		Threads: p.Threads,
		Seed:    p.Seed,
		Machine: trace.MachineInfo{
			TcSec: p.Machine.Tc,
			TsSec: p.Machine.Ts,
			TwSec: p.Machine.Tw,
		},
		Solver: trace.SolverInfo{
			C:         p.C,
			Tol:       p.Tol,
			Kernel:    p.Kernel.Kind.String(),
			Gamma:     p.Kernel.Gamma,
			PosWeight: p.PosWeight,
		},
		Iters:          st.Iters,
		SVs:            st.SVs,
		TotalFlops:     st.TotalFlops,
		ColCacheHits:   st.ColCacheHits,
		ColCacheMisses: st.ColCacheMisses,
		Accuracy:       accuracy,
		InitSec:        st.InitSec,
		TrainSec:       st.TrainSec,
		TotalSec:       st.TotalSec,
		WallSec:        st.Wall.Seconds(),
		CompSec:        st.CompSec,
		CommSec:        st.CommSec,
		CommBytes:      st.CommBytes,
		CommOps:        st.CommOps,
		CommMatrix:     st.CommMatrix,
		LostRanks:      st.LostRanks,
		Recoveries:     st.Recoveries,
		RecoverySec:    st.RecoverySec,
	}
	// A schedule-driven injector can describe its realized faults; record
	// them so any chaos run replays from its report alone.
	if fr, ok := p.Faults.(trace.FaultReporter); ok && p.Faults != nil {
		fi := fr.FaultsInfo()
		if fi != nil {
			if fi.Policy == "" {
				fi.Policy = string(p.Recovery.Policy)
			}
			if fi.CheckpointEvery == 0 && p.Recovery.Policy != RecoverOff {
				fi.CheckpointEvery = p.Recovery.Cadence()
			}
			r.Faults = fi
		}
	}
	if out.Set != nil {
		h, err := ModelHash(out.Set)
		if err != nil {
			return nil, err
		}
		r.ModelHash = h
	}
	r.AttachTimeline(p.Timeline)
	r.AttachMetrics(p.Metrics)
	if p.Timeline != nil {
		// Critical-path decomposition of the virtual makespan from the
		// causal record (segments + flow edges) the timeline collected.
		cp, err := critpath.Analyze(critpath.FromTimeline(p.Timeline))
		switch {
		case err == nil:
			r.CritPath = cp.Report()
		case st.Recoveries > 0 || len(st.LostRanks) > 0:
			// A recovered run's causal record includes aborted
			// attempts whose segment tiling stops mid-flight; omit the
			// decomposition rather than failing the whole report.
		default:
			return nil, fmt.Errorf("core: critical path: %w", err)
		}
	}
	return r, nil
}
