package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net/http"

	"casvm/internal/compress"
	"casvm/internal/core"
	"casvm/internal/data"
	"casvm/internal/kernel"
	"casvm/internal/la"
	"casvm/internal/model"
	"casvm/internal/serve"
	"casvm/internal/trace"
)

// serveSpec is what distinguishes the two serving workloads: how many
// queries a request carries, in which encoding, and how many distinct
// request bodies the clients cycle through.
type serveSpec struct {
	name    string
	queries int  // per request
	binary  bool // queries_b64 instead of JSON arrays
	bodies  int
}

// servePool is the held-out query pool both workloads draw from; the batch
// workload's 20 bodies × 256 queries use all of it.
const servePool = 5120

type serveInst struct {
	spec     serveSpec
	srv      *serve.Server
	reg      *trace.Registry
	client   *http.Client
	url      string
	set      *model.Set // the served (compressed) set
	features int
	bodies   [][]byte
	flat     [][]float64 // the same queries, row-major, for the staged replay
	want     [][]float64 // Set.PredictAll on each body's queries, computed offline
	truthHit []int       // how many of want[b] equal the true labels
	hits     int
	served   int
	svRatio  float64
	nbytes   int64
	atReplay map[string]int64 // registry counters when the first staged replay began
}

func setupServe(spec serveSpec) func(w *workload, seed int64, tr *tracer) (instance, error) {
	return func(w *workload, seed int64, tr *tracer) (instance, error) {
		s := &serveInst{spec: spec}
		entry := data.Registry()["face"]
		mix := entry.Spec
		mix.Test = servePool
		ds, x, y, nbytes, err := loadCorpus(tr, mix, seed)
		if err != nil {
			return nil, err
		}
		s.nbytes, s.features = nbytes, mix.Features

		// The model casvm-serve -selfbench serves: RA-CA P=8 on the face-like
		// corpus, compressed to the golden budget.
		p := core.DefaultParams(core.MethodRACA, 8)
		p.Kernel = kernel.RBF(entry.GammaOrDefault())
		var out *core.Output
		tr.do("core.Train", func() { out, err = core.Train(x, y, p) })
		if err != nil {
			return nil, fmt.Errorf("training the served model: %w", err)
		}
		var st compress.Stats
		tr.do("compress.Set", func() {
			s.set, st, err = compress.Set(out.Set, compress.Options{Budget: 32, PruneFrac: 0.01, Seed: 7})
		})
		if err != nil {
			return nil, err
		}
		s.svRatio = st.Ratio()

		// Request bodies: the first bodies×queries rows of the pool, the same rows
		// for every seed, cut into requests in seed-shuffled order.
		var labels []float64
		tr.do("model.Set.PredictAll", func() { labels = s.set.PredictAll(ds.TestX) })
		order := rand.New(rand.NewSource(seed)).Perm(spec.bodies * spec.queries)
		tr.do("bench.encodeBodies", func() {
			for b := 0; b < spec.bodies && err == nil; b++ {
				rows := order[b*spec.queries : (b+1)*spec.queries]
				flat := make([]float64, 0, len(rows)*s.features)
				want := make([]float64, len(rows))
				hit := 0
				req := serve.PredictRequest{}
				for k, r := range rows {
					flat = append(flat, ds.TestX.DenseRow(r)...)
					want[k] = labels[r]
					if labels[r] == ds.TestY[r] {
						hit++
					}
					if !spec.binary {
						req.Queries = append(req.Queries, ds.TestX.DenseRow(r))
					}
				}
				if spec.binary {
					req.QueriesB64, req.FeatureDim = serve.EncodeQueriesB64(flat), s.features
				}
				var body []byte
				body, err = json.Marshal(req)
				s.bodies = append(s.bodies, body)
				s.flat = append(s.flat, flat)
				s.want = append(s.want, want)
				s.truthHit = append(s.truthHit, hit)
			}
		})
		if err != nil {
			return nil, err
		}

		s.reg = trace.NewRegistry()
		tr.do("serve.Start", func() {
			if s.srv, err = serve.Start("127.0.0.1:0", serve.Config{Metrics: s.reg}); err != nil {
				return
			}
			_, err = s.srv.AddModelSet("default", s.set)
		})
		if err != nil {
			if s.srv != nil {
				s.srv.Close()
			}
			return nil, err
		}
		s.url = s.srv.URL() + "/predict"
		s.client = &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: w.clients + 2}}
		return s, nil
	}
}

func (s *serveInst) run(_, i int) (any, error) {
	resp, err := s.client.Post(s.url, "application/json", bytes.NewReader(s.bodies[s.body(i)]))
	if err != nil {
		return nil, err
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		return nil, err
	}
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("status %d: %s", resp.StatusCode, bytes.TrimSpace(body))
	}
	return body, nil
}

// check holds every returned label to Set.PredictAll on the same queries,
// computed offline during set-up.
func (s *serveInst) check(i int, out any) error {
	b := s.body(i)
	if i >= 0 { // warm-up ops are checked but not scored
		s.served += len(s.want[b])
	}
	var resp serve.PredictResponse
	if err := json.Unmarshal(out.([]byte), &resp); err != nil {
		return err
	}
	if err := s.checkLabels(b, resp.Labels); err != nil {
		return err
	}
	if i >= 0 {
		s.hits += s.truthHit[b]
	}
	return nil
}

// body maps an op index (negative during warm-up) to its request body.
func (s *serveInst) body(i int) int {
	n := len(s.bodies)
	return (i%n + n) % n
}

func (s *serveInst) checkLabels(b int, labels []float64) error {
	want := s.want[b]
	if len(labels) != len(want) {
		return fmt.Errorf("body %d: %d labels for %d queries", b, len(labels), len(want))
	}
	for k := range want {
		if labels[k] != want[k] {
			return fmt.Errorf("body %d query %d: served label %v, offline label %v", b, k, labels[k], want[k])
		}
	}
	return nil
}

func (s *serveInst) accuracyPct() float64 {
	if s.served == 0 {
		return 0
	}
	return 100 * float64(s.hits) / float64(s.served)
}

func (s *serveInst) close() {
	s.client.CloseIdleConnections()
	s.srv.Close()
}

// replay takes the request through the handler's three stages by hand:
// decode the body, hand the rows to the model's batcher (which waits out its
// flush policy, then evaluates), and evaluate the same rows directly.
func (s *serveInst) replay(tr *tracer, i int, _ any) error {
	b := s.body(i)
	if s.atReplay == nil {
		s.atReplay = s.readCounters()
	}
	var err error
	tr.do("replay", func() {
		var req *serve.PredictRequest
		tr.do("serve.DecodePredictRequest", func() { req, err = serve.DecodePredictRequest(s.bodies[b], serve.Limits{}) })
		if err != nil {
			return
		}
		h, herr := s.srv.Registry().Resolve("")
		if err = herr; err != nil {
			return
		}
		rows := append([]float64(nil), s.flat[b]...) // the batcher keeps its input
		tr.do("serve.Batcher.Predict", func() { _, err = h.Batcher().Predict(rows, req.NumQueries(), req.Features(), false) })
	})
	if err != nil {
		return err
	}
	// Outside the replay span: this work is already inside Batcher.Predict.
	var labels []float64
	tr.do("model.Set.PredictAll", func() {
		labels = s.set.PredictAll(la.NewDense(len(s.want[b]), s.features, s.flat[b]))
	})
	for k, l := range labels {
		if l != s.want[b][k] {
			return fmt.Errorf("body %d query %d: direct PredictAll disagrees with set-up", b, k)
		}
	}
	return nil
}

var serveCounters = []string{
	"casvm_serve_requests_total", "casvm_serve_queries_total", "casvm_serve_batches_total",
	"casvm_serve_batch_flush_timer_total",
}

func (s *serveInst) readCounters() map[string]int64 {
	c := map[string]int64{}
	for _, name := range serveCounters {
		c[name] = s.reg.Counter(name, "").Value()
	}
	return c
}

func (s *serveInst) probe(tr *tracer, quick bool, m map[string]float64) error {
	tr.setOp(-1)
	opUs := 1e3 * quiet(tr.byOp(s.spec.name+".op"))
	m["data.generate_ms"] = tr.total("data.Generate")
	m["data.libsvm_load_mb_s"] = float64(s.nbytes) / 1e6 / (tr.total("data.LoadLIBSVMFile") / 1e3)
	m["compress.set_ms"] = tr.total("compress.Set")
	m["compress.sv_ratio"] = s.svRatio

	m["serve.decode_us"] = 1e3 * quiet(tr.byOp("serve.DecodePredictRequest"))
	m["serve.batcher_us"] = 1e3 * quiet(tr.byOp("serve.Batcher.Predict"))
	m["serve.http_self_us"] = opUs - m["serve.batcher_us"]
	m["model.predict_all_us_per_query"] = 1e3 * quiet(tr.byOp("model.Set.PredictAll")) / float64(s.spec.queries)
	m["core.unattributed_pct"] = 100 * (opUs - 1e3*quiet(tr.byOp("replay"))) / opUs

	// The server's own counters up to the first staged replay: every
	// request until then came over HTTP from the workload's clients (replays
	// call the batcher directly, which would skew batches per request).
	count := func(name string) float64 { return float64(s.atReplay[name]) }
	if batches := count("casvm_serve_batches_total"); batches > 0 {
		m["serve.batch_size_mean"] = count("casvm_serve_queries_total") / batches
		m["serve.flush_timer_pct"] = 100 * count("casvm_serve_batch_flush_timer_total") / batches
		m["serve.batches_per_request"] = batches / count("casvm_serve_requests_total")
	}

	svx := s.set.Models[0].SVX
	probeKernel(tr, svx, s.set.Models[0].Kernel, 1, m)
	probeLA(tr, svx, m)
	return probePoolPredict(tr, s.set, la.NewDense(len(s.want[0]), s.features, s.flat[0]), quick, m)
}
