// The paper's headline comparison on real sockets: one OS process per node,
// Dis-SMO (the baseline) and then RA-CA (CA-SVM, casvm2 placement) trained
// over a TCP mesh by the same per-rank driver every other run uses.
//
// Each worker dials the mesh, loads the shared dataset and, per method, calls
// core.RunRank on an mpi world whose link is the mesh — the collectives,
// message accounting and α–β virtual time are internal/mpi's, exactly as
// in-process — then core.GatherOutput collects the ranks' results at rank 0.
// Rank 0 prints, per method, the messages and bytes the training moved, the
// wall time, and whether the model hash equals the in-process core.Train
// reference (the process exits non-zero if it does not), then the routed test
// accuracy of the CA-SVM model set:
//
//	go run ./examples/distributed -launch -p 4
//
// Workers find each other dynamically: the launcher runs a lease-based
// registrar (the casvm-cluster membership protocol) and forked workers know
// only its address — each one opens its mesh listener, registers, reports the
// listener's address, receives its rank plus the full peer table once
// everyone has checked in, and hands the open listener to tcpmpi. No static
// rank->address table exists anywhere, and no port is released and rebound.
//
// This program supervises nothing: a worker that dies fails the run — its mesh
// peers fail at once with a *mpi.LinkError naming its rank. Surviving a dead
// process is internal/cluster's job, shown by -cluster below.
//
// Fleet telemetry — every worker streams its trace spans, flow edges and
// metrics to the launcher over its registration lease; the launcher probes
// each lease's clock offset, rebases the spans onto one timeline, and
// writes a single merged Chrome trace (cross-process Perfetto arrows
// included) that casvm-profile analyzes end-to-end:
//
//	go run ./examples/distributed -launch -p 4 -fleet-trace merged.trace
//	go run ./cmd/casvm-profile merged.trace
//
// Straggler demo — slow one rank's CA-SVM training with an injected delay
// and watch the launcher's online detector flag it against the gang median:
//
//	go run ./examples/distributed -launch -p 4 -fleet-trace merged.trace \
//	    -straggle-rank 2 -straggle-sec 2s
//
// Cluster-executor demo — fault tolerance through the product path: an
// elastic coordinator (internal/cluster) gang-schedules a Remote job onto real
// executor worker processes, each training its shard ranks in its own
// process on receipt of one start frame over its lease — RA-CA ranks
// exchange no messages, so the workers are not connected to each other. The
// demo runs the job twice — fault-free, then with a kill -9 on a worker
// mid-epoch — and asserts both land on the same ModelHash:
//
//	go run ./examples/distributed -cluster -p 2
//
// Or place workers by hand (possibly on different hosts):
//
//	go run ./examples/distributed -rank 0 -peers host0:7070,host1:7071
//	go run ./examples/distributed -rank 1 -peers host0:7070,host1:7071
package main

import (
	"bytes"
	"context"
	"flag"
	"fmt"
	"log"
	"net"
	"os"
	"os/exec"
	"strconv"
	"strings"
	"sync"
	"time"

	"casvm"
	"casvm/internal/cluster"
	"casvm/internal/core"
	"casvm/internal/mpi"
	"casvm/internal/tcpmpi"
	"casvm/internal/telemetry/fleet"
	"casvm/internal/trace"
	"casvm/internal/trace/critpath"
)

// fleetJob names the telemetry stream every worker reports under.
const fleetJob = "distributed"

// Control tags: rank discovery over registration leases.
const (
	tagMeshAddr  = 78 // worker -> registrar: "host:port" the worker listens on
	tagMeshPeers = 79 // registrar -> worker: "rank|addr0,addr1,..."
)

func main() {
	var (
		launch = flag.Bool("launch", false, "fork -p worker processes on localhost")
		p      = flag.Int("p", 4, "world size (with -launch)")
		coord  = flag.String("coordinator", "", "registrar address for dynamic rank discovery (worker mode)")
		rank   = flag.Int("rank", -1, "this worker's rank (static worker mode)")
		peers  = flag.String("peers", "", "comma-separated rank addresses (static worker mode)")

		fleetTrace   = flag.String("fleet-trace", "", "with -launch: collect every worker's telemetry over its lease and write one merged Chrome trace here")
		straggleRank = flag.Int("straggle-rank", -1, "with -launch: inject a training delay into this rank so the straggler detector flags it")
		straggleSec  = flag.Duration("straggle-sec", 2*time.Second, "how long the straggling rank is delayed (with -straggle-rank)")
		fleetOn      = flag.Bool("fleet", false, "worker mode: stream trace spans and metrics to the registrar over the lease")
		stragIfRank  = flag.Int("straggle-if-rank", -1, "worker mode: straggle only if discovery assigned this rank")

		clusterDemo = flag.Bool("cluster", false, "run the cluster-executor demo: a coordinator gang-schedules a Remote job onto -p forked executor processes, kill -9s one mid-epoch, and verifies the recovered ModelHash")
		execAddr    = flag.String("executor", "", "executor worker mode: register with the cluster coordinator at this address and train assigned shard ranks in-process")
		execDelay   = flag.Duration("exec-delay", 0, "executor worker mode: per-iteration training delay (stretches solves so deaths land mid-epoch)")
	)
	flag.Parse()

	switch {
	case *clusterDemo:
		runClusterDemo(*p)
	case *execAddr != "":
		if err := cluster.RunExecutor(context.Background(), *execAddr, cluster.ExecutorOptions{
			Fleet: true, IterDelay: *execDelay, Logf: log.Printf,
		}); err != nil {
			log.Fatalf("executor: %v", err)
		}
	case *launch:
		launchWorkers(launchOpts{
			p: *p, fleetTrace: *fleetTrace,
			straggleRank: *straggleRank, straggleSec: *straggleSec,
		})
	case *coord != "":
		r, addrs, ln, lease, err := discoverWorld(*coord)
		if err != nil {
			log.Fatalf("discovery: %v", err)
		}
		defer lease.Close()
		o := workerOpts{listener: ln, lease: lease, fleet: *fleetOn}
		if *stragIfRank >= 0 && r == *stragIfRank {
			o.straggleSec = *straggleSec
		}
		runWorker(r, addrs, o)
	case *rank >= 0 && *peers != "":
		runWorker(*rank, strings.Split(*peers, ","), workerOpts{})
	default:
		flag.Usage()
		os.Exit(2)
	}
}

// discoverWorld opens this worker's mesh listener, joins the launcher's
// registrar, reports the listener's address, and blocks until every rank has
// checked in and the registrar answers with this worker's rank and the full
// peer table. The listener is returned open, to be handed to tcpmpi — closing
// it and binding the port again is a race another process can win. The
// returned lease stays open for the run — its heartbeats are the worker's
// liveness signal.
func discoverWorld(coordAddr string) (int, []string, net.Listener, *tcpmpi.Lease, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return 0, nil, nil, nil, err
	}
	lease, err := tcpmpi.Register(coordAddr, tcpmpi.RegisterOptions{})
	if err != nil {
		ln.Close()
		return 0, nil, nil, nil, err
	}
	fail := func(err error) (int, []string, net.Listener, *tcpmpi.Lease, error) {
		ln.Close()
		lease.Close()
		return 0, nil, nil, nil, err
	}
	if err := lease.Send(tagMeshAddr, []byte(ln.Addr().String())); err != nil {
		return fail(err)
	}
	b, err := lease.Recv(tagMeshPeers, 30*time.Second)
	if err != nil {
		return fail(fmt.Errorf("waiting for peer table: %w", err))
	}
	rankStr, peerList, ok := strings.Cut(string(b), "|")
	if !ok {
		return fail(fmt.Errorf("malformed peer table %q", b))
	}
	rank, err := strconv.Atoi(rankStr)
	if err != nil {
		return fail(err)
	}
	peers := strings.Split(peerList, ",")
	fmt.Printf("rank %d: discovered world of %d via registrar (lease %d)\n", rank, len(peers), lease.ID())
	return rank, peers, ln, lease, nil
}

// meshDirectory is the launcher-side discovery service: it collects each
// registered worker's mesh listener address, assigns ranks in check-in
// order once all p have reported, and answers every worker with its rank
// and the full peer table.
type meshDirectory struct {
	mu    sync.Mutex
	p     int
	reg   *tcpmpi.Registrar
	order []int          // lease ids, in mesh-addr check-in order
	addrs map[int]string // lease id -> mesh listener address
	ready chan []string  // closed with the rank-ordered peer table
}

func (d *meshDirectory) onFrame(w tcpmpi.WorkerInfo, tag int, payload []byte) {
	if tag != tagMeshAddr {
		return
	}
	d.mu.Lock()
	defer d.mu.Unlock()
	if _, dup := d.addrs[w.ID]; dup || len(d.order) >= d.p {
		return
	}
	d.addrs[w.ID] = string(payload)
	d.order = append(d.order, w.ID)
	if len(d.order) < d.p {
		return
	}
	peers := make([]string, d.p)
	for r, id := range d.order {
		peers[r] = d.addrs[id]
	}
	table := strings.Join(peers, ",")
	for r, id := range d.order {
		if err := d.reg.Send(id, tagMeshPeers, []byte(fmt.Sprintf("%d|%s", r, table))); err != nil {
			log.Printf("launcher: peer table for rank %d undeliverable: %v", r, err)
		}
	}
	d.ready <- peers
}

// launchOpts bundles the launcher's scenario knobs.
type launchOpts struct {
	p            int
	fleetTrace   string // merged-trace output path ("" = fleet plane off)
	straggleRank int
	straggleSec  time.Duration
}

// launchWorkers starts the discovery registrar, forks one worker per rank
// knowing only the registrar's address, and prints their output; ranks are
// assigned by check-in order. It supervises nothing — any worker failing
// fails the run. With fleetTrace set the launcher is also the telemetry
// coordinator: a fleet.Collector rides the same registrar, probes each
// worker's clock over its lease, and writes the merged trace once every rank
// checks out.
func launchWorkers(lo launchOpts) {
	p := lo.p
	start := time.Now()
	stamp := func(format string, a ...any) {
		fmt.Printf("[%6.2fs] "+format+"\n", append([]any{time.Since(start).Seconds()}, a...)...)
	}
	var col *fleet.Collector
	if lo.fleetTrace != "" {
		// MinSec drops below the default floor because the toy shards
		// train in well under a millisecond.
		col = fleet.New(fleet.Config{
			Metrics:   trace.NewRegistry(),
			Straggler: fleet.StragglerConfig{MinSec: 1e-6},
		})
	}
	dir := &meshDirectory{p: p, addrs: map[int]string{}, ready: make(chan []string, 1)}
	reg, err := tcpmpi.NewRegistrar("127.0.0.1:0", tcpmpi.RegistrarConfig{
		OnFrame: func(w tcpmpi.WorkerInfo, tag int, payload []byte) {
			if col != nil && col.HandleFrame(w, tag, payload) {
				return
			}
			dir.onFrame(w, tag, payload)
		},
		OnExpire: func(w tcpmpi.WorkerInfo) {
			stamp("registrar: lease %d expired (worker death detected by silence)", w.ID)
		},
	})
	if err != nil {
		log.Fatal(err)
	}
	defer reg.Close()
	dir.reg = reg
	if col != nil {
		col.AttachRegistrar(reg)
	}
	fmt.Printf("launching %d workers against registrar %s (no static peer table)\n", p, reg.Addr())
	if lo.straggleRank >= 0 {
		stamp("rank %d will straggle by %v (injected training delay)", lo.straggleRank, lo.straggleSec)
	}

	type exit struct {
		slot int
		err  error
		out  *bytes.Buffer
	}
	exits := make(chan exit, p)
	args := []string{"-coordinator", reg.Addr()}
	if lo.fleetTrace != "" {
		args = append(args, "-fleet")
	}
	if lo.straggleRank >= 0 {
		args = append(args, "-straggle-if-rank", fmt.Sprint(lo.straggleRank), "-straggle-sec", lo.straggleSec.String())
	}
	for slot := 0; slot < p; slot++ {
		var out bytes.Buffer
		cmd := exec.Command(os.Args[0], args...)
		cmd.Stdout = &out
		cmd.Stderr = &out
		if err := cmd.Start(); err != nil {
			log.Fatal(err)
		}
		go func(slot int) { exits <- exit{slot, cmd.Wait(), &out} }(slot)
	}

	select {
	case peers := <-dir.ready:
		stamp("discovery complete: ranks assigned by check-in order, peers %v", peers)
	case <-time.After(30 * time.Second):
		log.Fatal("discovery never completed: workers did not all check in")
	}

	failed := false
	for remaining := p; remaining > 0; remaining-- {
		e := <-exits
		if e.err != nil {
			failed = true
			stamp("worker slot %d failed: %v", e.slot, e.err)
		}
		fmt.Printf("--- worker slot %d ---\n%s", e.slot, e.out.String())
	}
	stamp("all workers accounted for")
	if col != nil {
		if err := writeMergedTrace(col, lo, stamp); err != nil {
			stamp("fleet trace: %v", err)
			failed = true
		}
	}
	if failed {
		os.Exit(1)
	}
}

// runClusterDemo is the remote-execution walkthrough: a cluster
// coordinator gang-schedules a Remote RA-CA job onto p forked executor
// processes (each solving its shard ranks in its own process, checkpoints
// streaming back over the lease), then repeats the run with a kill -9 on
// one executor mid-epoch. The coordinator re-gangs the survivors from the
// streamed checkpoints, and the demo fails unless the recovered run lands
// on the exact fault-free ModelHash.
func runClusterDemo(p int) {
	start := time.Now()
	stamp := func(format string, a ...any) {
		fmt.Printf("[%6.2fs] "+format+"\n", append([]any{time.Since(start).Seconds()}, a...)...)
	}
	coord, err := cluster.New("127.0.0.1:0", cluster.Config{
		LeaseTTL: 2 * time.Second,
		Metrics:  trace.NewRegistry(),
		Logf:     log.Printf,
	})
	if err != nil {
		log.Fatal(err)
	}
	defer coord.Close()
	stamp("coordinator listening on %s", coord.Addr())

	var workers []*exec.Cmd
	spawnExecutor := func() {
		cmd := exec.Command(os.Args[0], "-executor", coord.Addr(), "-exec-delay", "2ms")
		cmd.Stdout = os.Stdout
		cmd.Stderr = os.Stderr
		if err := cmd.Start(); err != nil {
			log.Fatal(err)
		}
		workers = append(workers, cmd)
	}
	defer func() {
		for _, cmd := range workers {
			if cmd.Process != nil {
				cmd.Process.Kill()
			}
			cmd.Wait()
		}
	}()
	for i := 0; i < p; i++ {
		spawnExecutor()
	}
	deadline := time.Now().Add(15 * time.Second)
	for len(coord.Workers()) < p {
		if time.Now().After(deadline) {
			log.Fatalf("only %d/%d executors registered", len(coord.Workers()), p)
		}
		time.Sleep(20 * time.Millisecond)
	}
	stamp("%d executor processes registered", p)

	spec := cluster.JobSpec{
		ID: "demo-ref", Dataset: "toy", Scale: 0.25,
		Method: "ra-ca", P: p, Seed: 1,
		Policy: "shrink", CheckpointEvery: 8, Remote: true,
	}
	stamp("fault-free reference: submitting Remote job (each rank solves in its worker's process)")
	ref := runDemoJob(coord, spec, stamp)
	stamp("reference hash %s (%d iterations, %d SVs)", ref.ModelHash, ref.Iters, ref.SVs)

	spec.ID = "demo-kill"
	stamp("kill run: same job, but a worker dies mid-epoch")
	j, err := coord.Submit(spec)
	if err != nil {
		log.Fatal(err)
	}
	deadline = time.Now().Add(60 * time.Second)
	for {
		pr := j.Remote()
		if len(pr.CkptIters) >= p && len(pr.DoneRanks) == 0 {
			break
		}
		if time.Now().After(deadline) {
			log.Fatalf("no mid-epoch window: progress %+v", pr)
		}
		time.Sleep(10 * time.Millisecond)
	}
	victim := workers[len(workers)-1]
	stamp("kill -9 executor pid %d (every rank has streamed a checkpoint; none has finished)", victim.Process.Pid)
	if err := victim.Process.Kill(); err != nil {
		log.Fatal(err)
	}
	go victim.Wait()
	<-j.Done()
	res := j.Result()
	if res.Err != "" {
		log.Fatalf("kill run failed: %s", res.Err)
	}
	stamp("recovered over %d generations (%d recover(ies), lost ranks %v, virtual time %.4fs)",
		res.Generations, res.Recoveries, res.LostRanks, res.TotalSec)
	if res.ModelHash != ref.ModelHash {
		log.Fatalf("recovered hash %s != fault-free %s", res.ModelHash, ref.ModelHash)
	}
	stamp("recovered hash %s == fault-free hash — kill -9 cost generations, not bits", res.ModelHash)
}

// runDemoJob submits one Remote job and blocks for its result.
func runDemoJob(coord *cluster.Coordinator, spec cluster.JobSpec, stamp func(string, ...any)) *cluster.JobResult {
	j, err := coord.Submit(spec)
	if err != nil {
		log.Fatal(err)
	}
	<-j.Done()
	res := j.Result()
	if res.Err != "" {
		log.Fatalf("job %s failed: %s", spec.ID, res.Err)
	}
	return res
}

// writeMergedTrace waits for every rank's telemetry stream to complete,
// writes the offset-rebased merged Chrome trace, prints any straggler
// verdicts, and summarizes the cross-process critical path inline.
func writeMergedTrace(col *fleet.Collector, lo launchOpts, stamp func(string, ...any)) error {
	deadline := time.Now().Add(30 * time.Second)
	for !col.StreamComplete(fleetJob) {
		if time.Now().After(deadline) {
			// A killed rank never checks out; merge whatever arrived.
			stamp("fleet: not every rank checked out; merging what arrived")
			break
		}
		time.Sleep(20 * time.Millisecond)
	}
	f, err := os.Create(lo.fleetTrace)
	if err != nil {
		return err
	}
	err = col.WriteMergedTrace(fleetJob, f)
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return err
	}
	stamp("fleet: merged trace written to %s (open in Perfetto or run casvm-profile on it)", lo.fleetTrace)

	if events, _ := col.Events(0); len(events) > 0 {
		for _, e := range events {
			stamp("fleet: STRAGGLER rank %d epoch %d: %.3fs vs gang median %.3fs (%.1fx)",
				e.Rank, e.Epoch, e.Sec, e.MedianSec, e.Factor)
		}
	} else if lo.straggleRank >= 0 {
		stamp("fleet: no straggler flagged (unexpected — a %v delay was injected)", lo.straggleSec)
	}

	rf, err := os.Open(lo.fleetTrace)
	if err != nil {
		return err
	}
	extra, err := trace.ReadTraceExtra(rf)
	rf.Close()
	if err != nil {
		return fmt.Errorf("re-reading merged trace: %w", err)
	}
	a, err := critpath.Analyze(critpath.FromExtra(extra))
	if err != nil {
		return fmt.Errorf("analyzing merged trace: %w", err)
	}
	stamp("fleet: critical path %.3fs ending on rank %d (%d cross-rank hops): comp %.3fs, latency %.3fs, wait %.3fs",
		a.MakespanSec, a.EndRank, a.Hops, a.CompSec, a.LatencySec, a.WaitSec)
	return nil
}

// workerOpts bundles one worker's scenario knobs. listener is the mesh
// listener discovery opened and lease the discovery lease (both nil in static
// mode); fleet telemetry needs the lease as its transport.
type workerOpts struct {
	listener    net.Listener
	lease       *tcpmpi.Lease
	fleet       bool
	straggleSec time.Duration // > 0: delay the CA-SVM training by this much
}

// runWorker is one rank: dial the mesh, then train Dis-SMO and RA-CA over it
// with the per-rank driver every run uses, rank 0 checking each gathered
// model against the in-process reference. With fleet telemetry on, the worker
// records its run on a local timeline (collective spans from mpi, flow edges
// from the mesh, the CA-SVM training span here) and ships it to the launcher
// over the lease before exiting.
func runWorker(rank int, addrs []string, o workerOpts) {
	p := len(addrs)
	var tl *trace.Timeline
	var rep *fleet.Reporter
	if o.fleet && o.lease != nil {
		r, err := fleet.NewReporter(o.lease, fleetJob, rank, p)
		if err != nil {
			fmt.Printf("rank %d: fleet hello failed (%v); telemetry off\n", rank, err)
		} else {
			rep = r
			tl = trace.NewTimeline(p)
		}
	}
	defer func() {
		if rep == nil {
			return
		}
		if err := rep.ShipTimeline(tl, 10*time.Second); err != nil {
			fmt.Printf("rank %d: fleet ship failed: %v\n", rank, err)
			return
		}
		_ = rep.Goodbye()
	}()
	// A peer that dies fails this worker at once (its connection breaks);
	// short heartbeats bound a silent one to 2s, and Timeout a stuck receive.
	comm, err := tcpmpi.DialOptions(rank, addrs, tcpmpi.Options{
		HeartbeatInterval: 500 * time.Millisecond,
		Timeout:           30 * time.Second,
		Listener:          o.listener,
		Timeline:          tl, // nil-safe: no recording without fleet telemetry
	})
	if err != nil {
		log.Fatal(err)
	}
	defer comm.Close()

	// Every rank generates the shared dataset deterministically: Dis-SMO
	// scatters it from rank 0 as the paper's baseline does, RA-CA reads its
	// resident block (casvm2) and moves nothing.
	ds, entry, err := casvm.LoadDataset("toy", 1.0)
	if err != nil {
		log.Fatal(err)
	}
	var caSet *casvm.ModelSet
	for _, method := range []core.Method{core.MethodDisSMO, core.MethodRACA} {
		params := core.DefaultParams(method, p)
		params.Kernel = casvm.RBF(entry.GammaOrDefault())
		var want string
		if rank == 0 {
			ref, err := core.Train(ds.X, ds.Y, params)
			if err != nil {
				log.Fatalf("%s in-process reference: %v", method, err)
			}
			if want, err = core.ModelHash(ref.Set); err != nil {
				log.Fatal(err)
			}
		}
		start := time.Now()
		var out *core.Output
		world := mpi.NewWorld(p, params.Machine, params.Seed)
		world.SetTimeline(tl)
		err := world.RunLink(rank, comm, func(c *mpi.Comm) error {
			sh, err := core.RunRank(c, ds.X, ds.Y, params)
			if err != nil {
				return err
			}
			if method == core.MethodRACA {
				reportShard(rank, tl, rep, sh, start, o.straggleSec)
			}
			out, err = core.GatherOutput(c, sh, params, world.Stats())
			return err
		})
		if err != nil {
			log.Fatalf("rank %d: %s: %v", rank, method, err)
		}
		if rank != 0 {
			continue
		}
		got, err := core.ModelHash(out.Set)
		if err != nil {
			log.Fatal(err)
		}
		if got != want {
			log.Fatalf("rank 0: %s: model hash %s over TCP != %s in-process", method, got, want)
		}
		st := out.Stats
		fmt.Printf("rank 0: %-6s P=%d: %d messages, %d bytes, %d iterations, %d SVs, virtual %.4fs, wall %.3fs; model hash %s == in-process core.Train\n",
			method, p, st.CommOps, st.CommBytes, st.Iters, st.SVs, st.TotalSec, time.Since(start).Seconds(), got[:12])
		caSet = out.Set
	}
	if rank == 0 {
		fmt.Printf("rank 0: assembled %d model files; routed test accuracy %.2f%%\n",
			caSet.P(), 100*caSet.Accuracy(ds.TestX, ds.TestY))
	}
}

// reportShard closes the CA-SVM training phase of one rank: the injected
// straggle delay, the training span on the local timeline, and the epoch and
// shard metrics the launcher's straggler detector reads.
func reportShard(rank int, tl *trace.Timeline, rep *fleet.Reporter, sh *core.ShardResult, start time.Time, straggle time.Duration) {
	if straggle > 0 {
		// The injected slowdown is wall time inside the training span, so
		// the detector sees it.
		fmt.Printf("rank %d: straggling — injected %.2gs training delay\n", rank, straggle.Seconds())
		time.Sleep(straggle)
	}
	dur := time.Since(start)
	if tl != nil {
		tl.Rank(rank).AddEvent(trace.Event{
			Name: "train-shard", Cat: trace.CatSolver,
			WallStartNs: start.UnixNano(), WallDurNs: dur.Nanoseconds(),
		})
	}
	if rep != nil {
		_ = rep.ReportEpoch(0, dur)
		mreg := trace.NewRegistry()
		mreg.Counter("casvm_shard_iterations_total", "local-shard training iterations").Add(int64(sh.Iters))
		mreg.Counter("casvm_shard_svs_total", "support vectors in the local shard model").Add(int64(sh.SVs))
		_ = rep.ShipMetrics(mreg)
	}
	fmt.Printf("rank %d: trained on %d samples, %d SVs, %d iterations\n", rank, sh.PartSize, sh.SVs, sh.Iters)
}
