package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
)

// benchmarkFile is the part of BENCHMARK.json that -compare reads: the
// regression bound of every end-to-end metric lives there and nowhere else.
type benchmarkFile struct {
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
}

// findBenchmarkFile looks for BENCHMARK.json in the working directory and
// its parents (the benchmark runs from bench/, the file sits at the root).
func findBenchmarkFile() (string, error) {
	dir, err := os.Getwd()
	if err != nil {
		return "", err
	}
	for {
		p := filepath.Join(dir, "BENCHMARK.json")
		if _, err := os.Stat(p); err == nil {
			return p, nil
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			return "", fmt.Errorf("BENCHMARK.json not found in the working directory or above")
		}
		dir = parent
	}
}

func readJSON(path string, v any) error {
	b, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	if err := json.Unmarshal(b, v); err != nil {
		return fmt.Errorf("%s: %w", path, err)
	}
	return nil
}

// verdict judges B against A for one metric on one workload. worseBy is
// the share of A's value by which B is worse (negative when better).
// Where either input's own spread exceeds the bound the pair cannot be
// told apart from noise and is unresolved, whichever way it points.
func verdict(a, b, bound, spreadA, spreadB float64, better string) (worseBy float64, v string) {
	if a != 0 {
		worseBy = (b - a) / a
		if better == "higher" {
			worseBy = -worseBy
		}
	}
	switch {
	case spreadA > bound || spreadB > bound:
		return worseBy, "unresolved"
	case worseBy > bound:
		return worseBy, "worse"
	}
	return worseBy, "ok"
}

// gated returns a workload's value of one end-to-end metric. Every gated
// metric is chosen never to be 0, so a workload or metric that is absent
// and a value of 0 (a wedged run that finished no window reports its
// medians as 0) both mean that nothing was measured.
func gated(wr *workloadReport, name string) (float64, bool) {
	if wr == nil {
		return 0, false
	}
	v := wr.EndToEnd[name].Value
	return v, v > 0
}

// compareReports prints one row per (metric, workload) pair of two
// reports and returns 1 when any pair is worse, 2 on unusable input. A
// pair that either input has no value for is worse: a change that kills a
// workload must not pass for one that made it free.
func compareReports(pathA, pathB string, out io.Writer) int {
	var a, b report
	var bf benchmarkFile
	bfPath, err := findBenchmarkFile()
	if err == nil {
		err = readJSON(bfPath, &bf)
	}
	if err == nil {
		err = readJSON(pathA, &a)
	}
	if err == nil {
		err = readJSON(pathB, &b)
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "bench: %v\n", err)
		return 2
	}
	fmt.Fprintf(out, "%-20s %-16s %14s %14s %8s %7s %8s %8s  %s\n",
		"workload", "metric", "A", "B", "worse%", "bound%", "spreadA%", "spreadB%", "verdict")
	worse := 0
	for _, w := range workloads {
		wa, wb := a.Workloads[w.name], b.Workloads[w.name]
		for _, d := range bf.EndToEnd {
			va, okA := gated(wa, d.Name)
			vb, okB := gated(wb, d.Name)
			if !okA || !okB {
				worse++
				fmt.Fprintf(out, "%-20s %-16s %14.4f %14.4f %8s %7.1f %8s %8s  worse: no value in an input\n",
					w.name, d.Name, va, vb, "", 100*d.Bound, "", "")
				continue
			}
			sa, sb := spread(wa.Series[d.Name]), spread(wb.Series[d.Name])
			by, v := verdict(va, vb, d.Bound, sa, sb, d.Better)
			if v == "worse" {
				worse++
			}
			fmt.Fprintf(out, "%-20s %-16s %14.4f %14.4f %+8.2f %7.1f %8.2f %8.2f  %s\n",
				w.name, d.Name, va, vb, 100*by, 100*d.Bound, 100*sa, 100*sb, v)
		}
	}
	if worse > 0 {
		fmt.Fprintf(out, "%d pair(s) worse than their bound\n", worse)
		return 1
	}
	return 0
}
