// benchjson converts `go test -bench` output on stdin into a JSON report.
// It keeps the numbers the perf acceptance gates care about — ns/op,
// B/op, allocs/op, and MB/s when present — keyed by benchmark name and the
// -cpu value the run used, so thread-scaling comparisons (e.g. -cpu 1,4)
// land in one machine-readable file.
//
// Usage:
//
//	go test ./... -bench . -benchmem -cpu 1,4 | benchjson > BENCH.json
//	benchjson -diff BENCH_old.json BENCH_new.json -threshold 0.15
//
// Diff mode compares two reports benchmark-by-benchmark (matched on name
// and -cpu value) and exits nonzero when any ns/op regressed past the
// threshold ratio — the CI gate behind `make bench-diff`.
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"strconv"
	"strings"
)

// Result is one benchmark line.
type Result struct {
	Name     string  `json:"name"`
	CPUs     int     `json:"cpus"`
	Iters    int64   `json:"iters"`
	NsPerOp  float64 `json:"ns_per_op"`
	BPerOp   *int64  `json:"bytes_per_op,omitempty"`
	AllocsOp *int64  `json:"allocs_per_op,omitempty"`
	MBPerSec float64 `json:"mb_per_s,omitempty"`
	// Extra holds custom units reported via b.ReportMetric (e.g.
	// BenchmarkTrainDisSMO's msgs/op), keyed by unit string. Informational:
	// diff mode gates only ns/op.
	Extra map[string]float64 `json:"extra,omitempty"`
}

// Report is the emitted document.
type Report struct {
	GOOS    string   `json:"goos,omitempty"`
	GOARCH  string   `json:"goarch,omitempty"`
	CPU     string   `json:"cpu,omitempty"`
	Results []Result `json:"results"`
}

func main() {
	diffMode := flag.Bool("diff", false, "compare two reports: benchjson -diff old.json new.json")
	threshold := flag.Float64("threshold", 0.10, "with -diff: ns/op regression ratio that fails the diff (0.10 = 10%)")
	flag.Parse()
	if *diffMode {
		if flag.NArg() != 2 {
			fmt.Fprintln(os.Stderr, "benchjson: -diff needs exactly two report paths (old new)")
			os.Exit(2)
		}
		regressed, err := diffReports(os.Stdout, flag.Arg(0), flag.Arg(1), *threshold)
		if err != nil {
			fmt.Fprintln(os.Stderr, "benchjson:", err)
			os.Exit(2)
		}
		if regressed {
			os.Exit(1)
		}
		return
	}

	var rep Report
	sc := bufio.NewScanner(os.Stdin)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		line := sc.Text()
		switch {
		case strings.HasPrefix(line, "goos:"):
			rep.GOOS = strings.TrimSpace(strings.TrimPrefix(line, "goos:"))
			continue
		case strings.HasPrefix(line, "goarch:"):
			rep.GOARCH = strings.TrimSpace(strings.TrimPrefix(line, "goarch:"))
			continue
		case strings.HasPrefix(line, "cpu:"):
			rep.CPU = strings.TrimSpace(strings.TrimPrefix(line, "cpu:"))
			continue
		}
		if !strings.HasPrefix(line, "Benchmark") {
			continue
		}
		if r, ok := parseLine(line); ok {
			rep.Results = append(rep.Results, r)
		}
	}
	if err := sc.Err(); err != nil {
		fmt.Fprintln(os.Stderr, "benchjson: read:", err)
		os.Exit(1)
	}
	enc := json.NewEncoder(os.Stdout)
	enc.SetIndent("", "  ")
	if err := enc.Encode(rep); err != nil {
		fmt.Fprintln(os.Stderr, "benchjson:", err)
		os.Exit(1)
	}
}

// parseLine decodes one result line, e.g.
//
//	BenchmarkSolve-4   10   12345678 ns/op   128 B/op   3 allocs/op
func parseLine(line string) (Result, bool) {
	fields := strings.Fields(line)
	if len(fields) < 4 {
		return Result{}, false
	}
	r := Result{Name: fields[0], CPUs: 1}
	if i := strings.LastIndexByte(r.Name, '-'); i > 0 {
		if n, err := strconv.Atoi(r.Name[i+1:]); err == nil {
			r.Name, r.CPUs = r.Name[:i], n
		}
	}
	iters, err := strconv.ParseInt(fields[1], 10, 64)
	if err != nil {
		return Result{}, false
	}
	r.Iters = iters
	// Remaining fields come in "<value> <unit>" pairs.
	for i := 2; i+1 < len(fields); i += 2 {
		v, err := strconv.ParseFloat(fields[i], 64)
		if err != nil {
			return Result{}, false
		}
		switch fields[i+1] {
		case "ns/op":
			r.NsPerOp = v
		case "B/op":
			b := int64(v)
			r.BPerOp = &b
		case "allocs/op":
			a := int64(v)
			r.AllocsOp = &a
		case "MB/s":
			r.MBPerSec = v
		default:
			if r.Extra == nil {
				r.Extra = map[string]float64{}
			}
			r.Extra[fields[i+1]] = v
		}
	}
	return r, r.NsPerOp > 0
}
