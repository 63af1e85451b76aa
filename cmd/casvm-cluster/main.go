// casvm-cluster is the elastic cluster runtime. In coordinator mode it
// accepts worker and client registrations, gang-schedules submitted
// training jobs over the worker pool, and converts lease churn into
// recovery actions: a worker whose lease expires mid-job re-gangs the job
// onto the survivors (or onto a replacement, under respawn), and a worker
// joining mid-run widens it again — landing on the fault-free model hash.
//
// Start a coordinator with live telemetry:
//
//	casvm-cluster -listen localhost:7600 -serve localhost:9100
//
// Join workers (each an executor that trains its jobs' ranks in its own
// process — RA-CA shards alone, every other method over a TCP mesh it dials
// with the rest of the gang on a listener it announced; Ctrl-C leaves
// cleanly):
//
//	casvm-cluster -join localhost:7600
//
// Submit jobs with the thin client:
//
//	casvm-train -cluster localhost:7600 -data ijcnn -method dissmo -p 8
//
// The telemetry server namespaces each job: /jobs lists them and
// /jobs/<id>/{metrics,report,trace} serve one job's counters, outcome, and
// merged fleet trace — where its ranks' convergence shows; the top-level
// /metrics carries the cluster_* membership counters (joins, leaves, lease
// expiries, scale-ups) and straggler counters, /healthz answers liveness
// probes with uptime and worker count, and /fleet/events streams straggler
// verdicts as SSE.
//
// A rank reports over its lease in the exec frames that carry its work
// (internal/telemetry/fleet): every checkpoint the epoch's wall time, which
// the straggler detector judges, and a mesh rank's rank-done frame the
// timeline it recorded — its collective spans and mesh flow edges, whose
// send and receive wall times also give the merge each rank's clock offset;
// with -fleet-trace DIR the coordinator also writes each finished job's
// merged Chrome trace to DIR/<job-id>.trace, ready for casvm-profile or
// Perfetto.
package main

import (
	"bytes"
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"io/fs"
	"log"
	"os"
	"os/signal"
	"path/filepath"
	"time"

	"casvm/internal/cluster"
	"casvm/internal/telemetry"
	"casvm/internal/trace"
)

func main() {
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
	err := run(ctx, os.Args[1:], os.Stdout)
	stop()
	if err != nil {
		fmt.Fprintln(os.Stderr, "casvm-cluster:", err)
		os.Exit(1)
	}
}

// run runs a coordinator, or with -join an executor, until ctx is done.
// Its banners go to stdout; the runtime's own events are logged to stderr.
func run(ctx context.Context, args []string, stdout io.Writer) error {
	fs := flag.NewFlagSet("casvm-cluster", flag.ContinueOnError)
	fs.Usage = func() {
		fmt.Fprintf(fs.Output(), "usage: casvm-cluster [-listen addr] [-serve addr] [-lease-ttl d] | -join addr\n")
		fs.PrintDefaults()
	}
	var (
		listen     = fs.String("listen", "localhost:7600", "coordinator registration address (workers and clients dial this)")
		serve      = fs.String("serve", "", "serve live telemetry on this address: /metrics, /healthz, /report, /jobs, /jobs/<id>/{metrics,report,trace}, /fleet/events")
		ttl        = fs.Duration("lease-ttl", 0, "worker lease TTL; a silent worker is expired after this (0 = 6s default)")
		join       = fs.String("join", "", "worker mode: register with the coordinator at this address and execute assigned ranks until interrupted")
		fleetTrace = fs.String("fleet-trace", "", "write each finished job's merged fleet trace to this directory as <job-id>.trace")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}

	if *join != "" {
		fmt.Fprintf(stdout, "joining %s as an executor worker (Ctrl-C to leave)\n", *join)
		err := cluster.RunExecutor(ctx, *join, cluster.ExecutorOptions{
			Fleet: true,
			Logf:  log.Printf,
		})
		if err != nil {
			return err
		}
		fmt.Fprintln(stdout, "lease ended, leaving cleanly")
		return nil
	}

	if *fleetTrace != "" {
		if err := os.MkdirAll(*fleetTrace, 0o755); err != nil {
			return fmt.Errorf("-fleet-trace: %w", err)
		}
	}
	start := time.Now()
	met := trace.NewRegistry()
	var coord *cluster.Coordinator
	coord, err := cluster.New(*listen, cluster.Config{
		LeaseTTL: *ttl,
		Metrics:  met,
		Logf:     log.Printf,
		OnJobDone: func(j *cluster.Job) {
			if *fleetTrace == "" {
				return
			}
			writeFleetTrace(j, *fleetTrace)
		},
	})
	if err != nil {
		return err
	}
	fmt.Fprintf(stdout, "coordinator listening on %s\n", coord.Addr())

	if *serve != "" {
		srv, err := telemetry.Start(*serve, telemetry.Config{
			Metrics: met,
			Report:  func() any { return statusReport(coord) },
			Jobs:    func() []telemetry.JobNamespace { return jobNamespaces(coord) },
			Health: func() any {
				return map[string]any{
					"status":     "ok",
					"uptime_sec": time.Since(start).Seconds(),
					"workers":    len(coord.Workers()),
				}
			},
			Streams: map[string]telemetry.StreamSource{
				"fleet/events": coord.Stragglers().Stream,
			},
		})
		if err != nil {
			coord.Close()
			return err
		}
		defer srv.Close()
		fmt.Fprintf(stdout, "telemetry at http://%s (/metrics /healthz /report /jobs /fleet/events)\n", srv.Addr())
	}

	<-ctx.Done()
	fmt.Fprintln(stdout, "shutting down")
	if err := coord.Close(); err != nil {
		return fmt.Errorf("close: %w", err)
	}
	return nil
}

// statusReport is the /report document: the membership table and every
// job's lifecycle position.
func statusReport(coord *cluster.Coordinator) any {
	type jobStatus struct {
		ID     string             `json:"id"`
		State  string             `json:"state"`
		Gang   []int              `json:"gang,omitempty"`
		Result *cluster.JobResult `json:"result,omitempty"`
	}
	type workerStatus struct {
		ID   int    `json:"id"`
		Addr string `json:"addr"`
	}
	var ws []workerStatus
	for _, w := range coord.Workers() {
		ws = append(ws, workerStatus{ID: w.ID, Addr: w.Addr})
	}
	var js []jobStatus
	for _, j := range coord.Jobs() {
		js = append(js, jobStatus{
			ID: j.ID(), State: j.State().String(), Gang: j.Gang(), Result: j.Result(),
		})
	}
	return map[string]any{
		"time":    time.Now().Format(time.RFC3339),
		"workers": ws,
		"jobs":    js,
	}
}

// jobNamespaces exposes each job's private metrics registry, result and
// (once workers have shipped spans) merged fleet trace under /jobs/<id>/.
func jobNamespaces(coord *cluster.Coordinator) []telemetry.JobNamespace {
	var out []telemetry.JobNamespace
	for _, j := range coord.Jobs() {
		j := j
		out = append(out, telemetry.JobNamespace{
			ID:      j.ID(),
			State:   j.State().String(),
			Metrics: j.Metrics(),
			Report:  func() any { return j.Result() },
			Trace:   j.WriteTrace,
		})
	}
	return out
}

// writeFleetTrace persists one finished job's merged trace (a no-op when
// its workers shipped no spans).
func writeFleetTrace(j *cluster.Job, dir string) {
	var buf bytes.Buffer
	err := j.WriteTrace(&buf)
	if errors.Is(err, fs.ErrNotExist) {
		return
	}
	path := filepath.Join(dir, j.ID()+".trace")
	if err == nil {
		err = os.WriteFile(path, buf.Bytes(), 0o666)
	}
	if err != nil {
		log.Printf("casvm-cluster: fleet trace for %s: %v", j.ID(), err)
		return
	}
	log.Printf("casvm-cluster: merged fleet trace for %s written to %s", j.ID(), path)
}
