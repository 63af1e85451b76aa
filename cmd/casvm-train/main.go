// casvm-train trains an SVM model set with any of the eight methods, on a
// LIBSVM-format file or a named synthetic dataset, and writes a casvm model
// file.
//
// Usage:
//
//	casvm-train -data ijcnn -method ra-ca -p 8 -model out.model
//	casvm-train -file train.svm -method dissmo -p 4 -gamma 0.05 -model out.model
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"sync"

	"casvm"
	"casvm/internal/cluster"
	"casvm/internal/faults"
	"casvm/internal/telemetry"
	"casvm/internal/trace"
)

func main() {
	var (
		file    = flag.String("file", "", "LIBSVM-format training file")
		dataset = flag.String("data", "", "named synthetic dataset (see -list)")
		scale   = flag.Float64("scale", 1.0, "synthetic dataset scale")
		method  = flag.String("method", "ra-ca", "training method")
		p       = flag.Int("p", 8, "number of ranks")
		c       = flag.Float64("c", 1.0, "regularization constant C")
		gamma   = flag.Float64("gamma", 0, "RBF gamma (0 = per-dataset heuristic)")
		tol     = flag.Float64("tol", 1e-3, "KKT tolerance")
		ratio   = flag.Bool("ratio-balance", true, "pos/neg ratio balancing (FCFS/BKM-CA)")
		modelP  = flag.String("model", "casvm.model", "output model path")
		report  = flag.String("report", "", "write a structured JSON run report to this path")
		traceP  = flag.String("trace", "", "write a Chrome trace_event JSON timeline to this path (load in chrome://tracing or ui.perfetto.dev)")
		serve   = flag.String("serve", "", "serve live telemetry on this address during training: /metrics, /events (SSE), /report, /debug/pprof (e.g. localhost:9100)")
		linger  = flag.Bool("serve-linger", false, "with -serve: keep the server up after training until interrupted")
		recPol  = flag.String("recover", "off", "recovery policy on rank failure: off, respawn (restart the lost rank from the last checkpoint), shrink (re-partition onto the survivors)")
		ckptEv  = flag.Int("ckpt-every", 0, "checkpoint cadence in solver iterations (0 = 64 when recovery is on)")
		chaos   = flag.Int64("chaos", 0, "inject a seeded random fault schedule (crashes, drops, delays); pair with -recover")
		replayF = flag.String("replay-faults", "", "replay the fault schedule recorded in this run report (a JSON file from -report)")
		clustr  = flag.String("cluster", "", "submit the run as a job to the casvm-cluster coordinator at this address instead of training locally: each rank runs in a joined worker's own process (ra-ca shards alone, every other method over a TCP mesh between the workers); requires -data, and jobs recover with shrink unless -recover respawn")
		seed    = flag.Int64("seed", 1, "training seed (partitioning and solver tie-breaks)")
		list    = flag.Bool("list", false, "list datasets and methods, then exit")
	)
	flag.Parse()

	if *list {
		fmt.Println("methods: ")
		for _, m := range casvm.Methods() {
			fmt.Println("  ", m)
		}
		fmt.Println("datasets:")
		for _, n := range casvm.DatasetNames() {
			fmt.Println("  ", n)
		}
		return
	}

	if *clustr != "" {
		// Thin-client mode: the coordinator and its workers resolve the
		// dataset from the spec, so only the spec crosses the wire. -file
		// paths are not shipped.
		if *dataset == "" {
			fail(fmt.Errorf("-cluster needs a named -data dataset (run -list for names)"))
		}
		policy := *recPol
		if policy == "off" {
			policy = "" // cluster jobs default to shrink supervision
		}
		spec := cluster.JobSpec{
			ID: "train", Dataset: *dataset, Scale: *scale, Method: *method,
			P: *p, C: *c, Gamma: *gamma, Tol: *tol, Seed: *seed,
			Policy: policy, CheckpointEvery: *ckptEv,
		}
		fmt.Printf("submitting %s job to %s (p=%d, dataset %s)\n", *method, *clustr, *p, *dataset)
		// A coordinator restarting mid-submit surfaces as a registration
		// or transport error; retry with capped backoff instead of
		// failing the CLI.
		res, err := cluster.SubmitWithRetry(*clustr, spec, 0, func(format string, args ...any) {
			fmt.Fprintf(os.Stderr, "casvm-train: "+format+"\n", args...)
		})
		if err != nil {
			fail(err)
		}
		fmt.Printf("job %s done: method=%s P=%d finalP=%d generations=%d\n", res.ID, res.Method, res.P, res.FinalP, res.Generations)
		fmt.Printf("iterations=%d SVs=%d accuracy=%.2f%%\n", res.Iters, res.SVs, 100*res.Accuracy)
		fmt.Printf("virtual time: %.4fs  wall: %.3fs\n", res.TotalSec, res.WallSec)
		if res.Messages > 0 {
			fmt.Printf("communication: %d bytes in %d messages\n", res.Bytes, res.Messages)
		}
		if res.Recoveries > 0 || res.Grows > 0 {
			fmt.Printf("elasticity: %d recover(ies), lost ranks %v, %d grow(s) adding %d rank(s)\n",
				res.Recoveries, res.LostRanks, res.Grows, res.JoinedRanks)
		}
		fmt.Printf("model hash: %s (model stays with the coordinator)\n", res.ModelHash)
		return
	}

	m, err := casvm.ParseMethod(*method)
	if err != nil {
		fail(err)
	}
	var ds *casvm.Dataset
	g := *gamma
	switch {
	case *file != "":
		if ds, err = casvm.DatasetFromLIBSVM(*file, 0); err != nil {
			fail(err)
		}
		if g == 0 {
			g = 1.0 / float64(ds.Features())
		}
	case *dataset != "":
		var entry casvm.DatasetEntry
		if ds, entry, err = casvm.LoadDataset(*dataset, *scale); err != nil {
			fail(err)
		}
		if g == 0 {
			g = entry.GammaOrDefault()
		}
	default:
		fail(fmt.Errorf("one of -file or -data is required"))
	}

	params := casvm.DefaultParams(m, *p)
	params.C = *c
	params.Tol = *tol
	params.Seed = *seed
	params.Kernel = casvm.RBF(g)
	params.RatioBalanced = *ratio
	pol, err := casvm.ParseRecoveryPolicy(*recPol)
	if err != nil {
		fail(err)
	}
	params.Recovery = casvm.Recovery{Policy: pol, CheckpointEvery: *ckptEv}
	switch {
	case *replayF != "":
		fi, err := readFaultsBlock(*replayF)
		if err != nil {
			fail(err)
		}
		sched, err := faults.ScheduleFromFaults(fi)
		if err != nil {
			fail(fmt.Errorf("%s: %w", *replayF, err))
		}
		params.Faults = faults.NewSchedule(sched)
		// The report pins the policy that handled the original run; explicit
		// -recover still wins.
		if pol == casvm.RecoverOff {
			if params.Recovery.Policy, err = casvm.ParseRecoveryPolicy(fi.Policy); err != nil {
				fail(fmt.Errorf("%s: %w", *replayF, err))
			}
		}
		if params.Recovery.CheckpointEvery == 0 {
			params.Recovery.CheckpointEvery = fi.CheckpointEvery
		}
		fmt.Printf("replaying fault schedule: seed=%d events=%d policy=%s\n",
			sched.Seed, len(sched.Events), params.Recovery.Policy)
	case *chaos != 0:
		sched := faults.RandomSchedule(*chaos, *p, 4, faults.ScheduleOptions{})
		params.Faults = faults.NewSchedule(sched)
		fmt.Printf("chaos schedule: seed=%d events=%d policy=%s\n",
			sched.Seed, len(sched.Events), params.Recovery.Policy)
	}
	if *report != "" || *traceP != "" || *serve != "" {
		// Observability costs nothing unless asked for; when asked, the
		// timeline feeds both the Chrome export and the report's phase
		// split, and the registry feeds the report's metrics block.
		params.Timeline = casvm.NewTimeline(*p)
		params.Metrics = casvm.NewMetricsRegistry()
	}
	var srv *telemetry.Server
	live := &liveReport{}
	if *serve != "" {
		params.Telemetry = casvm.NewTelemetryRing(0)
		live.set(map[string]any{"status": "running", "method": string(m), "p": *p})
		srv, err = telemetry.Start(*serve, telemetry.Config{
			Metrics: params.Metrics,
			Ring:    params.Telemetry,
			Report:  live.get,
		})
		if err != nil {
			fail(err)
		}
		fmt.Printf("telemetry: http://%s  (/metrics /events /report /debug/pprof)\n", srv.Addr())
	}

	out, acc, err := casvm.TrainDataset(ds, params)
	if err != nil {
		fail(err)
	}
	st := out.Stats
	fmt.Printf("method=%s m=%d n=%d P=%d\n", m, ds.M(), ds.Features(), *p)
	fmt.Printf("iterations=%d SVs=%d\n", st.Iters, st.SVs)
	fmt.Printf("virtual time: total=%.4fs (init %.4fs, train %.4fs)\n",
		st.TotalSec, st.InitSec, st.TrainSec)
	fmt.Printf("communication: %d bytes in %d operations\n", st.CommBytes, st.CommOps)
	fmt.Printf("wall time: %v\n", st.Wall)
	if st.Recoveries > 0 {
		fmt.Printf("recovery: %d restart(s), lost ranks %v, %.4fs of virtual time (policy %s)\n",
			st.Recoveries, st.LostRanks, st.RecoverySec, params.Recovery.Policy)
	}
	if ds.TestX != nil {
		fmt.Printf("held-out accuracy: %.2f%%\n", 100*acc)
	}
	if err := casvm.SaveModelSet(*modelP, out.Set); err != nil {
		fail(err)
	}
	fmt.Printf("model written to %s\n", *modelP)

	name := *dataset
	if name == "" {
		name = *file
	}
	if *report != "" || srv != nil {
		rep, err := casvm.BuildReport(out, params, name, acc)
		if err != nil {
			fail(err)
		}
		live.set(rep)
		if *report != "" {
			if err := writeFile(*report, rep.WriteJSON); err != nil {
				fail(err)
			}
			fmt.Printf("report written to %s\n", *report)
		}
	}
	if *traceP != "" {
		if err := writeFile(*traceP, params.Timeline.WriteChromeTrace); err != nil {
			fail(err)
		}
		fmt.Printf("trace written to %s (open in chrome://tracing or ui.perfetto.dev; causal flow arrows between rank lanes)\n", *traceP)
	}
	if srv != nil {
		if *linger {
			fmt.Printf("telemetry: final report live at http://%s/report — Ctrl-C to exit\n", srv.Addr())
			ch := make(chan os.Signal, 1)
			signal.Notify(ch, os.Interrupt)
			<-ch
		}
		if err := srv.Close(); err != nil {
			fail(err)
		}
	}
}

// liveReport is the mutable document behind the telemetry server's
// /report endpoint: a run-status stub while training, swapped for the full
// structured report once the run finishes.
type liveReport struct {
	mu sync.Mutex
	v  any
}

func (l *liveReport) get() any {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.v
}

func (l *liveReport) set(v any) {
	l.mu.Lock()
	l.v = v
	l.mu.Unlock()
}

// readFaultsBlock loads a run report and returns its faults block, which
// alone reconstructs the original fault schedule.
func readFaultsBlock(path string) (*trace.FaultsInfo, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	rep, err := trace.ReadReport(f)
	if err != nil {
		return nil, err
	}
	if rep.Faults == nil {
		return nil, fmt.Errorf("%s records no fault schedule to replay", path)
	}
	return rep.Faults, nil
}

// writeFile creates path and streams the writer function into it.
func writeFile(path string, write func(io.Writer) error) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := write(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

func fail(err error) {
	fmt.Fprintln(os.Stderr, "casvm-train:", err)
	os.Exit(1)
}
