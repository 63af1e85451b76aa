package trace

import (
	"bytes"
	"reflect"
	"strings"
	"testing"
)

func sampleReport() *Report {
	return &Report{
		Method:  "ra-ca",
		Dataset: "ijcnn",
		P:       8,
		Seed:    1,
		Machine: MachineInfo{TcSec: 1e-10, TsSec: 1.5e-6, TwSec: 6.7e-10},
		Solver:  SolverInfo{C: 1, Tol: 1e-3, Kernel: "gaussian", Gamma: 0.05},

		Iters:      1449,
		SVs:        1845,
		TotalFlops: 1.8e8,
		Accuracy:   0.9758,
		ModelHash:  "abc123",

		InitSec: 0.001, TrainSec: 0.004, TotalSec: 0.005,
		WallSec: 0.12, CompSec: 0.004, CommSec: 0.0002,

		CommBytes:  1024,
		CommOps:    12,
		CommMatrix: [][]int64{{0, 512}, {512, 0}},

		LostRanks: []int{3},
	}
}

func TestReportRoundTrip(t *testing.T) {
	r := sampleReport()
	var buf bytes.Buffer
	if err := r.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	got, err := ReadReport(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, r) {
		t.Fatalf("round trip mismatch:\n got %+v\nwant %+v", got, r)
	}
}

func TestReportSchemaStamp(t *testing.T) {
	var buf bytes.Buffer
	if err := (&Report{}).WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), ReportSchema) {
		t.Fatalf("report must carry the schema id:\n%s", buf.String())
	}
}

func TestReadReportRejectsBadSchema(t *testing.T) {
	if _, err := ReadReport(strings.NewReader(`{"schema":"casvm.report/v999","method":"x","p":1,"seed":0,"machine":{"tc_sec":0,"ts_sec":0,"tw_sec":0},"solver":{"c":0,"tol":0,"kernel":""},"iters":0,"svs":0,"total_flops":0,"init_sec":0,"train_sec":0,"total_sec":0,"wall_sec":0,"comp_sec":0,"comm_sec":0,"comm_bytes":0,"comm_ops":0}`)); err == nil {
		t.Fatal("unknown schema must be rejected")
	}
}

func TestReadReportRejectsUnknownFields(t *testing.T) {
	var buf bytes.Buffer
	if err := sampleReport().WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	bad := strings.Replace(buf.String(), `"method"`, `"bogus_field": 1, "method"`, 1)
	if _, err := ReadReport(strings.NewReader(bad)); err == nil {
		t.Fatal("unknown fields must be rejected")
	}
}

func TestAttachTimelineAndMetrics(t *testing.T) {
	tl := NewTimelineCap(1, 2)
	rec := tl.Rank(0)
	rec.End(rec.Begin(CatSolver, "scan"))
	rec.End(rec.Begin(CatSolver, "scan"))
	rec.End(rec.Begin(CatSolver, "scan")) // over the cap: dropped

	reg := NewRegistry()
	reg.Counter("iters_total", "").Add(42)

	var r Report
	r.AttachTimeline(tl)
	r.AttachMetrics(reg)
	if r.TimelineEvents != 2 || r.TimelineDropped != 1 {
		t.Fatalf("timeline attach: events=%d dropped=%d", r.TimelineEvents, r.TimelineDropped)
	}
	if len(r.Phases) != 1 || r.Phases[0].Count != 2 {
		t.Fatalf("phases: %+v", r.Phases)
	}
	if r.Metrics["iters_total"] != 42 {
		t.Fatalf("metrics: %v", r.Metrics)
	}

	var clean Report
	clean.AttachTimeline(nil)
	clean.AttachMetrics(nil)
	if clean.Phases != nil || clean.Metrics != nil {
		t.Fatal("nil attachments must leave the report empty")
	}
}
