package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"
)

// TestSmoke runs the four workloads end to end with -quick and checks
// only that the report is complete — every metric named in schema.go
// present with its unit — and that the oracle saw no wrong result. It
// makes no timing assertion.
func TestSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("runs four overlays; skipped with -short")
	}
	dir := t.TempDir()
	path := filepath.Join(dir, "bench.json")
	var out bytes.Buffer
	if code := run([]string{"-quick", "-out", path}, &out); code != 0 {
		t.Fatalf("bench -quick exited %d\n%s", code, out.String())
	}
	var rep report
	if err := readJSON(path, &rep); err != nil {
		t.Fatal(err)
	}
	if rep.Env.GOMAXPROCS < 1 || rep.Env.GoVersion == "" || rep.Env.TCP != "host loopback" {
		t.Errorf("environment not recorded: %+v", rep.Env)
	}
	for _, w := range workloads {
		wr := rep.Workloads[w.name]
		if wr == nil {
			t.Errorf("%s: missing from the report", w.name)
			continue
		}
		if !wr.Correct {
			t.Errorf("%s: the oracle rejected a result", w.name)
		}
		if wr.Attempted < 1 {
			t.Errorf("%s: nothing attempted", w.name)
		}
		for _, set := range []struct {
			defs []metricDef
			got  map[string]Value
		}{{endToEnd, wr.EndToEnd}, {perLayer, wr.PerLayer}} {
			for _, d := range set.defs {
				v, ok := set.got[d.Name]
				if !ok || v.Unit != d.Unit {
					t.Errorf("%s: metric %s missing or without its unit %q: %+v", w.name, d.Name, d.Unit, v)
				}
				if !strings.Contains(out.String(), d.Name) {
					t.Errorf("%s: metric %s not printed", w.name, d.Name)
				}
			}
		}
		if w.saturated() && len(wr.Ledger) == 0 {
			t.Errorf("%s: no ledger", w.name)
		}
	}
}

// TestWatchdog wedges an overlay on purpose — a back-end that stops
// sending mid-run starves its waitforall round for ever — and checks that
// the watchdog fires, the failure is counted, the workload restarts once
// and the pass ends.
func TestWatchdog(t *testing.T) {
	if testing.Short() {
		t.Skip("runs two overlays; skipped with -short")
	}
	o := &options{
		seed: 1, window: 300 * time.Millisecond, warmup: 300 * time.Millisecond, windows: 2,
		watchdog: 400 * time.Millisecond, maxRestarts: 2,
		outDir: t.TempDir(), wedgeAfter: 500,
	}
	done := make(chan *passResult, 1)
	go func() {
		pr, err := runPass(findWorkload("reduce_sat_chan"), o)
		if err != nil {
			t.Error(err)
		}
		done <- pr
	}()
	var pr *passResult
	select {
	case pr = <-done:
	case <-time.After(30 * time.Second):
		t.Fatal("the benchmark hung on a wedged overlay")
	}
	if pr == nil {
		t.FailNow()
	}
	if pr.wedges != 1 || pr.restarts != 1 {
		t.Errorf("wedges=%d restarts=%d, want 1 and 1", pr.wedges, pr.restarts)
	}
	if pr.failed < 1 {
		t.Errorf("a wedged attempt must count failed operations, got %d", pr.failed)
	}
	if len(pr.windows) != o.windows {
		t.Errorf("measured %d windows after the restart, want %d", len(pr.windows), o.windows)
	}
	dumps, _ := filepath.Glob(filepath.Join(o.outDir, "wedge-*.json"))
	if len(dumps) != 1 {
		t.Errorf("want one counter dump of the wedged attempt, found %v", dumps)
	}
}

// TestBenchmarkFileMatchesSchema keeps BENCHMARK.json and schema.go in
// step: same workloads, same metrics with the same units and directions.
func TestBenchmarkFileMatchesSchema(t *testing.T) {
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var bf struct {
		Workloads []struct{ Name, Why string } `json:"workloads"`
		EndToEnd  []struct {
			Name, Unit, Better string
			Bound              float64
		} `json:"end_to_end"`
		PerLayer []struct{ Name, Unit, Better string } `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &bf); err != nil {
		t.Fatal(err)
	}
	if len(bf.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json lists %d workloads, the benchmark has %d", len(bf.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if bf.Workloads[i].Name != w.name || bf.Workloads[i].Why != w.why {
			t.Errorf("workload %d: BENCHMARK.json has %q (%q), the benchmark %q (%q)", i, bf.Workloads[i].Name, bf.Workloads[i].Why, w.name, w.why)
		}
		if len(w.why) > 200 {
			t.Errorf("%s: why is %d characters, the contract allows 200", w.name, len(w.why))
		}
	}
	if len(bf.EndToEnd) != len(endToEnd) {
		t.Fatalf("BENCHMARK.json lists %d end-to-end metrics, schema.go %d", len(bf.EndToEnd), len(endToEnd))
	}
	for i, d := range endToEnd {
		g := bf.EndToEnd[i]
		if g.Name != d.Name || g.Unit != d.Unit || g.Better != d.Better {
			t.Errorf("end-to-end metric %d: BENCHMARK.json has %+v, schema.go %+v", i, g, d)
		}
		if g.Bound <= 0 || g.Bound > 0.25 {
			t.Errorf("%s: bound %v outside (0, 0.25]", g.Name, g.Bound)
		}
	}
	if len(bf.PerLayer) != len(perLayer) {
		t.Fatalf("BENCHMARK.json lists %d per-layer metrics, schema.go %d", len(bf.PerLayer), len(perLayer))
	}
	for i, d := range perLayer {
		if g := bf.PerLayer[i]; g.Name != d.Name || g.Unit != d.Unit || g.Better != d.Better {
			t.Errorf("per-layer metric %d: BENCHMARK.json has %+v, schema.go %+v", i, g, d)
		}
	}
}
