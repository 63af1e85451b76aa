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
// timeline it recorded — its collective spans and mesh flow edges (-no-fleet
// turns the recording off); with -fleet-trace DIR the coordinator also
// writes each finished job's merged Chrome trace to DIR/<job-id>.trace, ready
// for casvm-profile or Perfetto.
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
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
	var (
		listen     = flag.String("listen", "localhost:7600", "coordinator registration address (workers and clients dial this)")
		serve      = flag.String("serve", "", "serve live telemetry on this address: /metrics, /healthz, /report, /jobs, /jobs/<id>/{metrics,report,trace}, /fleet/events")
		ttl        = flag.Duration("lease-ttl", 0, "worker lease TTL; a silent worker is expired after this (0 = 6s default)")
		join       = flag.String("join", "", "worker mode: register with the coordinator at this address and execute assigned ranks until interrupted")
		fleetOff   = flag.Bool("no-fleet", false, "worker mode: do not record mesh ranks' timelines")
		fleetTrace = flag.String("fleet-trace", "", "write each finished job's merged fleet trace to this directory as <job-id>.trace")
	)
	flag.Parse()

	if *join != "" {
		ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
		defer stop()
		log.Printf("casvm-cluster: joining %s as an executor worker (Ctrl-C to leave)", *join)
		err := cluster.RunExecutor(ctx, *join, cluster.ExecutorOptions{
			Fleet: !*fleetOff,
			Logf:  log.Printf,
		})
		if err != nil {
			log.Fatalf("casvm-cluster: %v", err)
		}
		log.Printf("casvm-cluster: lease ended, leaving cleanly")
		return
	}

	if *fleetTrace != "" {
		if err := os.MkdirAll(*fleetTrace, 0o755); err != nil {
			log.Fatalf("casvm-cluster: -fleet-trace: %v", err)
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
			writeFleetTrace(coord, j.ID(), *fleetTrace)
		},
	})
	if err != nil {
		log.Fatalf("casvm-cluster: %v", err)
	}
	log.Printf("casvm-cluster: coordinator listening on %s", coord.Addr())

	var srv *telemetry.Server
	if *serve != "" {
		srv, err = telemetry.Start(*serve, telemetry.Config{
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
				"fleet/events": coord.Fleet().StreamSource(),
			},
		})
		if err != nil {
			log.Fatalf("casvm-cluster: %v", err)
		}
		log.Printf("casvm-cluster: telemetry at http://%s (/metrics /healthz /report /jobs /fleet/events)", srv.Addr())
	}

	ch := make(chan os.Signal, 1)
	signal.Notify(ch, os.Interrupt)
	<-ch
	log.Printf("casvm-cluster: shutting down")
	if srv != nil {
		_ = srv.Close()
	}
	if err := coord.Close(); err != nil {
		log.Fatalf("casvm-cluster: close: %v", err)
	}
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
	fl := coord.Fleet()
	var out []telemetry.JobNamespace
	for _, j := range coord.Jobs() {
		j := j
		ns := telemetry.JobNamespace{
			ID:      j.ID(),
			State:   j.State().String(),
			Metrics: j.Metrics(),
			Report:  func() any { return j.Result() },
		}
		if fl.HasTrace(j.ID()) {
			ns.Trace = func(w io.Writer) error { return fl.WriteMergedTrace(j.ID(), w) }
		}
		out = append(out, ns)
	}
	return out
}

// writeFleetTrace persists one finished job's merged trace (a no-op when
// its workers shipped no spans).
func writeFleetTrace(coord *cluster.Coordinator, jobID, dir string) {
	fl := coord.Fleet()
	if !fl.HasTrace(jobID) {
		return
	}
	path := filepath.Join(dir, jobID+".trace")
	f, err := os.Create(path)
	if err != nil {
		log.Printf("casvm-cluster: fleet trace for %s: %v", jobID, err)
		return
	}
	err = fl.WriteMergedTrace(jobID, f)
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		log.Printf("casvm-cluster: fleet trace for %s: %v", jobID, err)
		return
	}
	log.Printf("casvm-cluster: merged fleet trace for %s written to %s", jobID, path)
}

func init() {
	flag.Usage = func() {
		fmt.Fprintf(os.Stderr, "usage: casvm-cluster [-listen addr] [-serve addr] [-lease-ttl d] | -join addr\n")
		flag.PrintDefaults()
	}
}
