// Genuinely distributed CA-SVM over TCP: one OS process per node, the
// casvm2 placement of the paper. Each rank generates its resident data
// shard, trains its local SVM with zero training communication, then the
// model files are gathered at rank 0, which evaluates routed prediction on
// a shared test set.
//
// Run everything locally with one command (the launcher forks P workers):
//
//	go run ./examples/distributed -launch -p 4
//
// Fault-tolerance demo — kill a worker mid-run and watch the survivors
// finish with the lost shard reported:
//
//	go run ./examples/distributed -launch -p 4 -kill-rank 2 -kill-after 1s
//
// Elastic recovery — same crash, but the run completes with every shard:
//
//	go run ./examples/distributed -launch -p 4 -kill-rank 2 -recover respawn
//	go run ./examples/distributed -launch -p 4 -kill-rank 2 -recover shrink
//
// Under "respawn" the launcher forks a fresh process for the dead rank; the
// new incarnation rejoins through rank 0 alone (tcpmpi Options.Peers), and
// its hello's fresh flag resurrects the connection rank 0 had declared
// dead. Under "shrink" rank 0 re-partitions the lost shard onto itself and
// retrains it locally. Either way the assembled model set is complete.
//
// Workers find each other dynamically: the launcher runs a lease-based
// registrar (the casvm-cluster membership protocol) and forked workers know
// only its address — each one registers, reports the mesh port it reserved,
// and receives its rank plus the full peer table once everyone has checked
// in. No static rank->address table exists anywhere.
//
// Deterministic reconnect timing: -chaos-seed N derives every worker's
// reconnect backoff jitter from the seeded fault-schedule RNG
// (faults.Schedule.JitterFunc), so a replayed crash scenario reproduces the
// same re-dial timing instead of drawing from the global RNG.
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
// Straggler demo — slow one rank with an injected delay (driven through
// the internal/faults machinery) and watch the launcher's online detector
// flag it against the gang median:
//
//	go run ./examples/distributed -launch -p 4 -fleet-trace merged.trace \
//	    -straggle-rank 2 -straggle-sec 2s
//
// Cluster-executor demo — the same machinery productized: an elastic
// coordinator (internal/cluster) gang-schedules a Remote job onto real
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
	"casvm/internal/faults"
	"casvm/internal/model"
	"casvm/internal/tcpmpi"
	"casvm/internal/telemetry/fleet"
	"casvm/internal/trace"
	"casvm/internal/trace/critpath"
)

// fleetJob names the telemetry stream every worker reports under.
const fleetJob = "distributed"

// Control tags: tagModel gathers model files at rank 0 over the mesh;
// tagMeshAddr and tagMeshPeers run rank discovery over registration leases.
const (
	tagModel     = 77
	tagMeshAddr  = 78 // worker -> registrar: "host:port" the worker reserved
	tagMeshPeers = 79 // registrar -> worker: "rank|addr0,addr1,..."
)

func main() {
	var (
		launch    = flag.Bool("launch", false, "fork -p worker processes on localhost")
		p         = flag.Int("p", 4, "world size (with -launch)")
		killRank  = flag.Int("kill-rank", -1, "rank to kill mid-run (with -launch)")
		killAfter = flag.Duration("kill-after", time.Second, "how long the killed rank lives (with -kill-rank)")
		policy    = flag.String("recover", "off", "recovery for the killed rank: off, respawn (refork it; it rejoins via rank 0), shrink (rank 0 retrains the lost shard)")
		chaosSeed = flag.Int64("chaos-seed", 0, "seed reconnect backoff jitter from the fault-schedule RNG for reproducible re-dial timing (0 = global RNG)")
		coord     = flag.String("coordinator", "", "registrar address for dynamic rank discovery (worker mode)")
		rank      = flag.Int("rank", -1, "this worker's rank (static worker mode)")
		peers     = flag.String("peers", "", "comma-separated rank addresses (static worker mode)")
		dieAfter  = flag.Duration("die-after", 0, "crash this worker before the model gather (worker mode)")
		dieIfRank = flag.Int("die-if-rank", -1, "crash only if discovery assigned this rank (worker mode; pairs with -die-after)")
		rejoin    = flag.Bool("rejoin", false, "this worker is a respawned incarnation: dial only rank 0 (worker mode)")

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

	if *policy != "off" && *policy != "respawn" && *policy != "shrink" {
		log.Fatalf("unknown -recover policy %q (want off, respawn or shrink)", *policy)
	}
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
			p: *p, killRank: *killRank, killAfter: *killAfter, policy: *policy,
			chaosSeed: *chaosSeed, fleetTrace: *fleetTrace,
			straggleRank: *straggleRank, straggleSec: *straggleSec,
		})
	case *coord != "":
		r, addrs, lease, err := discoverWorld(*coord)
		if err != nil {
			log.Fatalf("discovery: %v", err)
		}
		defer lease.Close()
		o := workerOpts{
			dieAfter: *dieAfter, policy: *policy, rejoin: *rejoin,
			chaosSeed: *chaosSeed, lease: lease, fleet: *fleetOn,
		}
		if *dieIfRank >= 0 && r != *dieIfRank {
			o.dieAfter = 0
		}
		if *stragIfRank >= 0 && r == *stragIfRank {
			o.straggleSec = *straggleSec
		}
		runWorker(r, addrs, o)
	case *rank >= 0 && *peers != "":
		runWorker(*rank, strings.Split(*peers, ","), workerOpts{
			dieAfter: *dieAfter, policy: *policy, rejoin: *rejoin, chaosSeed: *chaosSeed,
		})
	default:
		flag.Usage()
		os.Exit(2)
	}
}

// discoverWorld joins the launcher's registrar, reports the mesh address
// this worker reserved, and blocks until every rank has checked in and the
// registrar answers with this worker's rank and the full peer table. The
// returned lease stays open for the run — its heartbeats are the worker's
// liveness signal.
func discoverWorld(coordAddr string) (int, []string, *tcpmpi.Lease, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return 0, nil, nil, err
	}
	meshAddr := ln.Addr().String()
	ln.Close() // reserved; tcpmpi re-binds it as this rank's mesh listener

	lease, err := tcpmpi.Register(coordAddr, tcpmpi.RegisterOptions{})
	if err != nil {
		return 0, nil, nil, err
	}
	if err := lease.Send(tagMeshAddr, []byte(meshAddr)); err != nil {
		lease.Close()
		return 0, nil, nil, err
	}
	b, err := lease.Recv(tagMeshPeers, 30*time.Second)
	if err != nil {
		lease.Close()
		return 0, nil, nil, fmt.Errorf("waiting for peer table: %w", err)
	}
	rankStr, peerList, ok := strings.Cut(string(b), "|")
	if !ok {
		lease.Close()
		return 0, nil, nil, fmt.Errorf("malformed peer table %q", b)
	}
	rank, err := strconv.Atoi(rankStr)
	if err != nil {
		lease.Close()
		return 0, nil, nil, err
	}
	fmt.Printf("rank %d: discovered world of %d via registrar (lease %d)\n",
		rank, len(strings.Split(peerList, ",")), lease.ID())
	return rank, strings.Split(peerList, ","), lease, nil
}

// meshDirectory is the launcher-side discovery service: it collects each
// registered worker's reserved mesh address, assigns ranks in check-in
// order once all p have reported, and answers every worker with its rank
// and the full peer table.
type meshDirectory struct {
	mu    sync.Mutex
	p     int
	reg   *tcpmpi.Registrar
	order []int          // lease ids, in mesh-addr check-in order
	addrs map[int]string // lease id -> reserved mesh address
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
	killRank     int
	killAfter    time.Duration
	policy       string
	chaosSeed    int64
	fleetTrace   string // merged-trace output path ("" = fleet plane off)
	straggleRank int
	straggleSec  time.Duration
}

// launchWorkers starts the discovery registrar, forks one worker per rank
// knowing only the registrar's address, and streams their output. Ranks
// are assigned by check-in order, so a planned kill targets "whichever
// worker became rank killRank" via -die-if-rank. Under the respawn policy
// the launcher is also the supervisor: it reforks the dead rank as a fresh
// incarnation that rejoins through rank 0 using the discovered peer table.
// With fleetTrace set the launcher is also the telemetry coordinator: a
// fleet.Collector rides the same registrar, probes each worker's clock
// over its lease, and writes the merged trace once every rank checks out.
func launchWorkers(lo launchOpts) {
	p, killRank, killAfter, policy, chaosSeed :=
		lo.p, lo.killRank, lo.killAfter, lo.policy, lo.chaosSeed
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
	if killRank >= 0 {
		stamp("rank %d will be killed after %v (recovery policy: %s)", killRank, killAfter, policy)
	}
	if lo.straggleRank >= 0 {
		stamp("rank %d will straggle by %v (injected training delay)", lo.straggleRank, lo.straggleSec)
	}

	type exit struct {
		slot, incarnation int
		err               error
		out               *bytes.Buffer
	}
	exits := make(chan exit, p+1)
	common := []string{"-recover", policy}
	if chaosSeed != 0 {
		common = append(common, "-chaos-seed", fmt.Sprint(chaosSeed))
	}
	if lo.fleetTrace != "" {
		common = append(common, "-fleet")
	}
	spawnFresh := func(slot int) {
		args := append([]string{"-coordinator", reg.Addr()}, common...)
		if killRank >= 0 {
			args = append(args, "-die-if-rank", fmt.Sprint(killRank), "-die-after", killAfter.String())
		}
		if lo.straggleRank >= 0 {
			args = append(args, "-straggle-if-rank", fmt.Sprint(lo.straggleRank), "-straggle-sec", lo.straggleSec.String())
		}
		var out bytes.Buffer
		cmd := exec.Command(os.Args[0], args...)
		cmd.Stdout = &out
		cmd.Stderr = &out
		if err := cmd.Start(); err != nil {
			log.Fatal(err)
		}
		go func() { exits <- exit{slot, 1, cmd.Wait(), &out} }()
	}
	spawnRespawn := func(rank int, peers []string) {
		args := append([]string{"-rank", fmt.Sprint(rank), "-peers", strings.Join(peers, ","), "-rejoin"}, common...)
		var out bytes.Buffer
		cmd := exec.Command(os.Args[0], args...)
		cmd.Stdout = &out
		cmd.Stderr = &out
		if err := cmd.Start(); err != nil {
			log.Fatal(err)
		}
		go func() { exits <- exit{rank, 2, cmd.Wait(), &out} }()
	}
	for slot := 0; slot < p; slot++ {
		spawnFresh(slot)
	}

	var peers []string
	select {
	case peers = <-dir.ready:
		stamp("discovery complete: ranks assigned by check-in order, peers %v", peers)
	case <-time.After(30 * time.Second):
		log.Fatal("discovery never completed: workers did not all check in")
	}

	remaining := p
	failed := false
	killHandled := false
	for remaining > 0 {
		e := <-exits
		if e.err != nil && e.incarnation == 1 && killRank >= 0 && !killHandled {
			killHandled = true
			stamp("rank %d's worker died as planned: %v", killRank, e.err)
			fmt.Printf("--- worker slot %d (incarnation 1) ---\n%s", e.slot, e.out.String())
			if policy == "respawn" {
				stamp("respawning rank %d — the fresh incarnation rejoins via rank 0", killRank)
				spawnRespawn(killRank, peers) // the respawn owns this slot now
				continue
			}
			stamp("policy %q: no respawn; the survivors own shard %d now", policy, killRank)
			remaining--
			continue
		}
		if e.err != nil {
			failed = true
			stamp("worker slot %d failed: %v", e.slot, e.err)
		} else if e.incarnation > 1 {
			stamp("respawned rank %d finished", e.slot)
		}
		fmt.Printf("--- worker slot %d (incarnation %d) ---\n%s", e.slot, e.incarnation, e.out.String())
		remaining--
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

// shardRows returns the deterministic row range of rank r's resident shard
// of an m-sample dataset split over p ranks.
func shardRows(m, p, r int) []int {
	per := m / p
	lo, hi := r*per, (r+1)*per
	if r == p-1 {
		hi = m
	}
	rows := make([]int, 0, hi-lo)
	for i := lo; i < hi; i++ {
		rows = append(rows, i)
	}
	return rows
}

// trainShard trains rank r's resident shard on a single-rank in-process
// world and returns the serialized model file plus the run stats.
func trainShard(ds *casvm.Dataset, entry casvm.DatasetEntry, r, p int) ([]byte, casvm.Stats, error) {
	rows := shardRows(ds.M(), p, r)
	localX := ds.X.Subset(rows)
	localY := make([]float64, len(rows))
	for k, i := range rows {
		localY[k] = ds.Y[i]
	}
	params := casvm.DefaultParams(casvm.MethodRACA, 1)
	params.Kernel = casvm.RBF(entry.GammaOrDefault())
	local := &casvm.Dataset{Name: "shard", X: localX, Y: localY}
	out, _, err := casvm.TrainDataset(local, params)
	if err != nil {
		return nil, casvm.Stats{}, err
	}
	var buf bytes.Buffer
	if err := model.SaveSet(&buf, out.Set); err != nil {
		return nil, casvm.Stats{}, err
	}
	return buf.Bytes(), out.Stats, nil
}

// workerOpts bundles one worker's scenario knobs. lease is the discovery
// lease (nil in static mode); fleet telemetry needs it as its transport.
type workerOpts struct {
	dieAfter    time.Duration
	policy      string
	rejoin      bool
	chaosSeed   int64
	lease       *tcpmpi.Lease
	fleet       bool
	straggleSec time.Duration // > 0: delay training by this much
}

// runWorker is one rank: local shard → local training → model gather. A
// non-zero dieAfter crashes the worker before it ships its model,
// simulating a mid-run node death. A rejoining worker is a respawned
// incarnation: it dials only rank 0 (tcpmpi Options.Peers) instead of
// paying the full-mesh handshake, and its fresh-incarnation hello
// resurrects the connection rank 0 had given up on. With fleet telemetry
// on, the worker records its run on a local timeline (training span via
// the recorder, cross-process flow edges via Options.Timeline) and ships
// it to the launcher over the lease before exiting.
func runWorker(rank int, addrs []string, o workerOpts) {
	start := time.Now()
	p := len(addrs)
	dieAfter, policy, rejoin, chaosSeed := o.dieAfter, o.policy, o.rejoin, o.chaosSeed

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
	// Short heartbeats and a small reconnect budget so a dead peer is
	// detected (and, failing a re-dial, declared dead) in a few seconds
	// rather than the production default.
	opt := tcpmpi.Options{
		HeartbeatInterval:   500 * time.Millisecond,
		HeartbeatTimeout:    2 * time.Second,
		ReconnectAttempts:   2,
		ReconnectBackoffMax: 500 * time.Millisecond,
	}
	if chaosSeed != 0 {
		// Reproducible re-dial timing: backoff jitter comes from the
		// fault-schedule RNG keyed by (seed, rank), not the global RNG.
		opt.ReconnectJitter = faults.Schedule{Seed: chaosSeed}.JitterFunc(rank)
	}
	if rejoin && rank != 0 {
		opt.Peers = []int{0}
	}
	opt.Timeline = tl // nil-safe: no recording without fleet telemetry
	comm, err := tcpmpi.DialOptions(rank, addrs, opt)
	if err != nil {
		log.Fatal(err)
	}
	defer comm.Close()
	if rejoin {
		fmt.Printf("rank %d: rejoined the world (fresh incarnation, coordinator-only mesh)\n", rank)
	}

	// casvm2 placement: every rank generates its own resident shard of the
	// shared dataset deterministically — no data distribution traffic, and
	// a respawned incarnation rebuilds the exact same shard.
	ds, entry, err := casvm.LoadDataset("toy", 1.0)
	if err != nil {
		log.Fatal(err)
	}
	trainStart := time.Now()
	raw, st, err := trainShard(ds, entry, rank, p)
	if err != nil {
		log.Fatal(err)
	}
	if o.straggleSec > 0 {
		// The injected slowdown rides the faults machinery: a DelayProb=1
		// plan yields a deterministic delay verdict, realized here as wall
		// time inside the training span so the detector sees it.
		inj := faults.New(faults.Plan{Seed: chaosSeed, DelayProb: 1, DelaySec: o.straggleSec.Seconds()})
		v := inj.Intercept(rank, rank, 0, nil)
		fmt.Printf("rank %d: straggling — injected %.2gs training delay\n", rank, v.DelaySec)
		time.Sleep(time.Duration(v.DelaySec * float64(time.Second)))
	}
	trainDur := time.Since(trainStart)
	if tl != nil {
		tl.Rank(rank).AddEvent(trace.Event{
			Name: "train-shard", Cat: trace.CatSolver,
			WallStartNs: trainStart.UnixNano(), WallDurNs: trainDur.Nanoseconds(),
		})
	}
	if rep != nil {
		_ = rep.ReportEpoch(0, trainDur)
		mreg := trace.NewRegistry()
		mreg.Counter("casvm_shard_iterations_total", "local-shard training iterations").Add(int64(st.Iters))
		mreg.Counter("casvm_shard_svs_total", "support vectors in the local shard model").Add(int64(st.SVs))
		_ = rep.ShipMetrics(mreg)
	}
	fmt.Printf("rank %d: trained on %d samples, %d SVs, %d iterations\n",
		rank, len(shardRows(ds.M(), p, rank)), st.SVs, st.Iters)

	if dieAfter > 0 {
		// Injected crash: hold the connection open until the deadline so
		// the death lands mid-run, then exit without shipping the model.
		if lived := time.Since(start); lived < dieAfter {
			time.Sleep(dieAfter - lived)
		}
		fmt.Printf("rank %d: dying now (injected crash before model gather)\n", rank)
		os.Exit(1)
	}

	// Ship the model file (and routing center) to rank 0 — the only
	// communication in the entire run.
	if rank != 0 {
		if err := comm.Send(0, tagModel, raw); err != nil {
			// Root gone: nothing useful left to do, but this worker did
			// its job — don't report a spurious failure.
			fmt.Printf("rank %d: model gather failed (%v), exiting\n", rank, err)
		}
		return
	}

	// Rank 0 collects every shard's model. A rank whose connection dies
	// (and stays down past the reconnect window) is handled per policy:
	// off — its shard is lost and the run degrades; respawn — keep
	// receiving until the supervisor's fresh incarnation delivers; shrink —
	// re-partition the shard onto rank 0 and retrain it here.
	type shard struct {
		rank int
		raw  []byte
	}
	var shards []shard
	var lost []int
	shards = append(shards, shard{rank: 0, raw: raw})
	for src := 1; src < p; src++ {
		raw, err := comm.Recv(src, tagModel)
		if err != nil && policy == "respawn" {
			fmt.Printf("rank 0: shard %d lost (%v); waiting for its respawn\n", src, err)
			deadline := time.Now().Add(30 * time.Second)
			for time.Now().Before(deadline) {
				time.Sleep(250 * time.Millisecond)
				if raw, err = comm.Recv(src, tagModel); err == nil {
					fmt.Printf("rank 0: shard %d redelivered by the respawned incarnation\n", src)
					break
				}
			}
		}
		if err != nil && policy == "shrink" {
			fmt.Printf("rank 0: shard %d lost (%v); shrink recovery — retraining it on rank 0\n", src, err)
			var st casvm.Stats
			if raw, st, err = trainShard(ds, entry, src, p); err == nil {
				fmt.Printf("rank 0: shard %d retrained locally (%d SVs, %d iterations)\n", src, st.SVs, st.Iters)
			}
		}
		if err != nil {
			fmt.Printf("rank 0: shard %d lost (%v)\n", src, err)
			lost = append(lost, src)
			continue
		}
		shards = append(shards, shard{rank: src, raw: raw})
	}

	// Assemble the routed model set from the collected shards and evaluate.
	set := &casvm.ModelSet{}
	centerData := make([]float64, 0, len(shards)*ds.Features())
	for _, s := range shards {
		ms, err := model.LoadSet(bytes.NewReader(s.raw))
		if err != nil {
			log.Fatalf("rank %d model: %v", s.rank, err)
		}
		set.Models = append(set.Models, ms.Models[0])
		// Center = mean of the rank's shard (eqn 14), recomputed here
		// from the deterministic shard definition.
		centerData = append(centerData, ds.X.Mean(shardRows(ds.M(), p, s.rank))...)
	}
	set.Centers = newDense(len(shards), ds.Features(), centerData)
	acc := set.Accuracy(ds.TestX, ds.TestY)
	if len(lost) > 0 {
		fmt.Printf("rank 0: completed degraded — lost shard(s) %v, %d/%d model files assembled\n",
			lost, len(shards), p)
	} else if policy != "off" {
		fmt.Printf("rank 0: every shard accounted for (policy %s)\n", policy)
	}
	fmt.Printf("rank 0: assembled %d model files; routed test accuracy %.2f%%\n",
		set.P(), 100*acc)
}

func newDense(m, n int, data []float64) *casvm.Matrix {
	return casvm.NewDenseMatrix(m, n, data)
}
