package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"strconv"
	"strings"
	"time"
)

// selfcheckRuns is the size of each of the two sets: ten runs, each with its
// own seed, as the driver that gates later changes makes them.
const selfcheckRuns = 10

// runSelfcheck measures this tree against itself: two sets of full runs in
// fresh processes, then for every workload and end-to-end metric the two
// medians, how much worse the second is than the first, and each set's spread
// (interquartile distance over median), all against the metric's bound.
// It prints a Markdown report (committed as NOISE.md) and returns 1 if any
// pair is out of bounds.
func runSelfcheck(o options) int {
	exe, err := os.Executable()
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 1
	}
	start := time.Now()
	// values[set][workload][metric] = one value per run
	var values [2]map[string]map[string][]float64
	for set := range values {
		values[set] = map[string]map[string][]float64{}
		for run := 0; run < selfcheckRuns; run++ {
			seed := int64(1 + set*selfcheckRuns + run)
			for _, w := range workloads {
				m, err := childRun(exe, w.name, seed, o.seconds)
				if err != nil {
					fmt.Fprintf(os.Stderr, "bench: selfcheck: %s seed %d: %v\n", w.name, seed, err)
					return 1
				}
				if values[set][w.name] == nil {
					values[set][w.name] = map[string][]float64{}
				}
				for name, v := range m {
					values[set][w.name][name] = append(values[set][w.name][name], v)
				}
			}
		}
	}

	fmt.Printf("# Noise self-check\n\n")
	fmt.Printf("`go run . -selfcheck` on %s: two sets of %d runs per workload (seeds 1–%d, then %d–%d), every run a fresh process, %d s nominal. ",
		time.Now().UTC().Format("2006-01-02"), selfcheckRuns, selfcheckRuns, selfcheckRuns+1, 2*selfcheckRuns, o.seconds)
	fmt.Printf("`worse` is how far the second median is on the wrong side of the first; `spread` is (Q3−Q1)/median of a set's ten values, quartiles as Python's `statistics.quantiles(v, n=4)`. Both are held to `bound`; `setup_s` is held on `worse` only.\n\n")
	fmt.Printf("| workload | metric | median A | median B | worse | spread A | spread B | bound | |\n|---|---|---|---|---|---|---|---|---|\n")
	failed := 0
	for _, w := range workloads {
		for _, d := range endToEnd {
			a, b := values[0][w.name][d.name], values[1][w.name][d.name]
			ma, mb := median(a), median(b)
			worse := (mb - ma) / ma
			if d.higher {
				worse = -worse
			}
			worse += 0 // prints an exact tie as +0.00, not -0.00
			sa, sb := spread(a), spread(b)
			verdict := "ok"
			if worse > d.bound || (d.name != "setup_s" && (sa > d.bound || sb > d.bound)) {
				verdict = "**OUT**"
				failed++
			}
			fmt.Printf("| %s | %s | %.6g | %.6g | %+.2f%% | %.2f%% | %.2f%% | %.1f%% | %s |\n",
				w.name, d.name, ma, mb, 100*worse, 100*sa, 100*sb, 100*d.bound, verdict)
		}
	}
	fmt.Printf("\n%d of %d pairs out of bounds; %d runs in %s.\n", failed, len(workloads)*len(endToEnd),
		2*selfcheckRuns*len(workloads), time.Since(start).Round(time.Second))
	if failed > 0 {
		return 1
	}
	return 0
}

// childRun runs one workload in a fresh process and returns the metrics of
// its report line.
func childRun(exe, workload string, seed int64, seconds int) (map[string]float64, error) {
	cmd := exec.Command(exe, "-workload", workload, "-seed", strconv.FormatInt(seed, 10), "-seconds", strconv.Itoa(seconds))
	var out bytes.Buffer
	cmd.Stdout = &out
	cmd.Stderr = os.Stderr
	if err := cmd.Run(); err != nil {
		return nil, err
	}
	lines := strings.Split(strings.TrimSpace(out.String()), "\n")
	var line struct {
		Correct bool
		Metrics map[string]struct{ Value float64 }
	}
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &line); err != nil {
		return nil, fmt.Errorf("report line: %w", err)
	}
	if !line.Correct {
		return nil, fmt.Errorf("run reported failed ops")
	}
	m := map[string]float64{}
	for name, v := range line.Metrics {
		m[name] = v.Value
	}
	return m, nil
}
