// Command bench is this repository's one benchmark: four workloads on the
// shipping configuration of the overlay, seven end-to-end metrics, and a
// per-layer cost ledger. See README.md beside this file.
//
//	go run . [-workload name] [-seed n] [-seconds n] [-trace -1|0|1] [-quick] [-out file]
//	go run . -compare A.json B.json
//
// With one workload and -trace 0 or 1 (how the driver of BENCHMARK.json
// calls it) the last line of standard output is one JSON object holding
// the end-to-end metrics (-trace 0) or the per-layer metrics (-trace 1).
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sort"
	"strings"
	"time"

	"repro/internal/core"
)

// env records where a report was measured.
type env struct {
	GOMAXPROCS int     `json:"gomaxprocs"`
	NProc      int     `json:"nproc"`
	GoVersion  string  `json:"go_version"`
	Commit     string  `json:"commit"`
	TCP        string  `json:"tcp"`
	Seed       int64   `json:"seed"`
	WindowS    float64 `json:"window_s"`
	Windows    int     `json:"windows"`
}

// workloadReport is everything measured on one workload.
type workloadReport struct {
	Topology  string           `json:"topology"`
	Fabric    string           `json:"fabric"`
	Correct   bool             `json:"correct"`
	Attempted int64            `json:"attempted"`
	Failed    int64            `json:"failed"`
	EndToEnd  map[string]Value `json:"end_to_end,omitempty"`
	PerLayer  map[string]Value `json:"per_layer,omitempty"`
	// Series holds the per-window (setup_s: per-build) values behind the
	// end-to-end medians; -compare judges the inputs' own spread by them.
	Series map[string][]float64 `json:"series,omitempty"`
	// AsMeasured holds the medians of the same windows before they were
	// scaled to the reference host, and HostSlowdown the factor of every
	// pass (host.go).
	AsMeasured   map[string]Value `json:"as_measured,omitempty"`
	HostSlowdown []float64        `json:"host_slowdown,omitempty"`
	// LatSamplesPerWindow says how far out a latency percentile can be
	// trusted: a p99 wants a thousand.
	LatSamplesPerWindow float64     `json:"lat_samples_per_window,omitempty"`
	Ledger              []ledgerRow `json:"ledger,omitempty"`
}

type report struct {
	Env       env                        `json:"env"`
	Workloads map[string]*workloadReport `json:"workloads"`
}

// result is the line the benchmark contract asks for.
type result struct {
	Correct   bool             `json:"correct"`
	Attempted int64            `json:"attempted"`
	Failed    int64            `json:"failed"`
	Metrics   map[string]Value `json:"metrics"`
}

// plan is how one invocation spends its time.
type plan struct {
	seed         int64
	window       time.Duration
	warmup       time.Duration
	passes       int // untraced passes, each in a fresh overlay between two readings of the host's speed
	windows      int // measured windows per untraced pass
	refWindows   int // traced invocation: untraced reference for trace.overhead_pct and the ledger
	traceWindows int
	coldBuilds   int           // at least this many cold set-ups
	coldBudget   time.Duration // more of them while they fit in this
	outDir       string
}

func (p *plan) options(traced bool, windows int) *options {
	return &options{
		seed: p.seed, window: p.window, warmup: p.warmup, windows: windows, traced: traced,
		watchdog: defaultWatchdog, maxRestarts: 2, outDir: p.outDir,
	}
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout))
}

func run(args []string, out io.Writer) int {
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	name := fs.String("workload", "", "run one workload (default: all four)")
	seed := fs.Int64("seed", 1, "seed of the payload bytes and command values")
	seconds := fs.Int("seconds", 30, "seconds under load per workload: five passes of half a window of warm-up and two measured windows")
	trace := fs.Int("trace", -1, "0: end-to-end pass only; 1: traced pass and ladder only; -1: both")
	quick := fs.Bool("quick", false, "three windows of 250 ms: a smoke test, not a measurement")
	outPath := fs.String("out", "out/bench.json", "write the report as JSON to this file; traces and wedge dumps go beside it")
	compare := fs.Bool("compare", false, "compare two reports: -compare A.json B.json")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *compare {
		if fs.NArg() != 2 {
			fmt.Fprintln(os.Stderr, "bench: -compare wants two report files")
			return 2
		}
		return compareReports(fs.Arg(0), fs.Arg(1), out)
	}
	if *seconds < 1 || *trace < -1 || *trace > 1 || fs.NArg() != 0 {
		fs.Usage()
		return 2
	}

	// Five passes of two windows: the host's speed is read between passes,
	// and it changes within seconds, so short passes follow it best.
	p := &plan{seed: *seed, passes: 5, windows: 2, refWindows: 2, traceWindows: 4, coldBuilds: 7, coldBudget: time.Second, outDir: filepath.Dir(*outPath)}
	p.window = time.Duration(*seconds) * time.Second * 2 / time.Duration(p.passes*(2*p.windows+1))
	p.warmup = p.window / 2
	if *quick {
		p.window, p.warmup, p.passes, p.windows = 250*time.Millisecond, 250*time.Millisecond, 1, 3
		p.refWindows, p.traceWindows, p.coldBuilds, p.coldBudget = 1, 2, 2, 0
		rungDur, hostRuns = 4*time.Millisecond, 1
	}
	todo := workloads
	if *name != "" {
		w := findWorkload(*name)
		if w == nil {
			fmt.Fprintf(os.Stderr, "bench: unknown workload %q\n", *name)
			return 2
		}
		todo = []workload{*w}
	}

	rep := &report{Env: environment(p), Workloads: map[string]*workloadReport{}}
	fmt.Fprintf(out, "# GOMAXPROCS=%d nproc=%d %s commit=%s TCP=%s seed=%d window=%.2fs x%d in %d passes\n",
		rep.Env.GOMAXPROCS, rep.Env.NProc, rep.Env.GoVersion, rep.Env.Commit, rep.Env.TCP, p.seed, p.window.Seconds(), rep.Env.Windows, p.passes)
	for i := range todo {
		w := &todo[i]
		wr := &workloadReport{Topology: w.topo, Fabric: fabricName(w.fabric), Correct: true}
		rep.Workloads[w.name] = wr
		if *trace != 1 {
			if err := runUntraced(w, p, wr); err != nil {
				fmt.Fprintf(os.Stderr, "bench: %s: %v\n", w.name, err)
				return 1
			}
		}
		if *trace != 0 {
			if err := runTraced(w, p, wr); err != nil {
				fmt.Fprintf(os.Stderr, "bench: %s: %v\n", w.name, err)
				return 1
			}
		}
		printWorkload(out, w, wr)
	}

	if err := writeJSON(*outPath, rep); err != nil {
		fmt.Fprintf(os.Stderr, "bench: %v\n", err)
		return 1
	}
	if len(todo) == 1 && *trace >= 0 {
		wr := rep.Workloads[todo[0].name]
		res := result{Correct: wr.Correct, Attempted: wr.Attempted, Failed: wr.Failed, Metrics: wr.EndToEnd}
		if *trace == 1 {
			res.Metrics = wr.PerLayer
		}
		line, err := json.Marshal(res)
		if err != nil {
			fmt.Fprintf(os.Stderr, "bench: %v\n", err)
			return 1
		}
		fmt.Fprintf(out, "%s\n", line)
	}
	return 0
}

func fabricName(k core.TransportKind) string {
	if k == core.TCPTransport {
		return "tcp"
	}
	return "chan"
}

func environment(p *plan) env {
	e := env{
		GOMAXPROCS: runtime.GOMAXPROCS(0), NProc: runtime.NumCPU(), GoVersion: runtime.Version(),
		Commit: "unknown", TCP: "host loopback", Seed: p.seed, WindowS: p.window.Seconds(), Windows: p.passes * p.windows,
	}
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			if s.Key == "vcs.revision" {
				e.Commit = s.Value
			}
		}
	}
	if e.Commit == "unknown" {
		// go run does not stamp the binary; ask git, where there is one.
		if out, err := exec.Command("git", "rev-parse", "HEAD").Output(); err == nil {
			e.Commit = strings.TrimSpace(string(out))
		}
	}
	return e
}

// account folds one pass's operations into the workload's totals.
func (wr *workloadReport) account(pr *passResult) {
	wr.Attempted += pr.ok + pr.failed
	wr.Failed += pr.failed
	wr.Correct = wr.Correct && pr.wrong == 0
}

// runUntraced is the end-to-end measurement: cold set-ups, then p.passes
// passes with nothing attached to the overlay, each a fresh overlay, a
// warm-up and p.windows measured windows, with the host's speed read
// before and after the set-ups and after every pass. What the host's speed
// bounds is scaled to the reference host by the two readings round it.
func runUntraced(w *workload, p *plan, wr *workloadReport) error {
	before, err := hostSlowdown()
	if err != nil {
		return err
	}
	timings, failed := coldBuilds(w, p.options(false, 0), p.coldBuilds, p.coldBudget)
	wr.Attempted += int64(len(timings)) + failed
	wr.Failed += failed
	after, err := hostSlowdown()
	if err != nil {
		return err
	}
	series, measured := map[string][]float64{}, map[string][]float64{}
	for _, t := range timings {
		measured["setup_s"] = append(measured["setup_s"], t.total/1000)
		series["setup_s"] = append(series["setup_s"], w.onReferenceHost("setup_s", t.total/1000, (before+after)/2))
	}
	before = after
	var heaps, latN []float64
	for i := 0; i < p.passes; i++ {
		pr, err := runPass(w, p.options(false, p.windows))
		if err != nil {
			return err
		}
		after, err := hostSlowdown()
		if err != nil {
			return err
		}
		wr.account(pr)
		slowdown := (before + after) / 2
		wr.HostSlowdown = append(wr.HostSlowdown, slowdown)
		before = after
		for k, xs := range pr.endToEndSeries() {
			for _, x := range xs {
				measured[k] = append(measured[k], x)
				series[k] = append(series[k], w.onReferenceHost(k, x, slowdown))
			}
		}
		heaps = append(heaps, pr.last.liveHeapMB)
		latN = append(latN, pr.latSamples())
	}
	m := map[string]float64{
		"live_heap_mb":    median(heaps),
		"delivered_ratio": 1 - ratio(float64(wr.Failed), float64(wr.Attempted)),
	}
	for k, xs := range series {
		m[k] = median(xs)
	}
	wr.EndToEnd = complete(endToEnd, m)
	wr.Series = series
	wr.AsMeasured = map[string]Value{}
	for _, d := range endToEnd {
		if xs, ok := measured[d.Name]; ok {
			wr.AsMeasured[d.Name] = Value{Value: median(xs), Unit: d.Unit}
		}
	}
	wr.LatSamplesPerWindow = median(latN)
	return nil
}

// runTraced produces the per-layer metrics: a short untraced reference,
// the traced pass, and the ladder; the ledger ties them together.
func runTraced(w *workload, p *plan, wr *workloadReport) error {
	m := map[string]float64{}
	timings, failed := coldBuilds(w, p.options(false, 0), min(p.coldBuilds, 3), 0)
	wr.Attempted += int64(len(timings)) + failed
	wr.Failed += failed
	col := func(f func(setupTiming) float64) float64 {
		var xs []float64
		for _, t := range timings {
			xs = append(xs, f(t))
		}
		return median(xs)
	}
	m["core.new_network_ms"] = col(func(t setupTiming) float64 { return t.newNetwork })
	m["core.new_stream_ms"] = col(func(t setupTiming) float64 { return t.newStream })
	m["core.first_result_ms"] = col(func(t setupTiming) float64 { return t.firstResult })
	m["core.shutdown_ms"] = col(func(t setupTiming) float64 { return t.shutdown })
	m["session.open_ms"] = col(func(t setupTiming) float64 { return t.sessionOpen })

	before, err := hostSlowdown()
	if err != nil {
		return err
	}
	ref, err := runPass(w, p.options(false, p.refWindows))
	if err != nil {
		return err
	}
	after, err := hostSlowdown()
	if err != nil {
		return err
	}
	m["host.slowdown"] = (before + after) / 2
	wr.account(ref)
	tr, err := runPass(w, p.options(true, p.traceWindows))
	if err != nil {
		return err
	}
	wr.account(tr)
	tr.layerMetrics(m)
	m["core.wedges"] = float64(ref.wedges + tr.wedges)
	m["core.restarts"] = float64(ref.restarts + tr.restarts)
	refRate, trRate := median(ref.pktsPerS()), median(tr.pktsPerS())
	m["trace.overhead_pct"] = 100 * ratio(refRate-trRate, refRate)
	m["cpu_ns_per_pkt"] = median(ref.cpuNsPerPkt())

	rungs, err := ladder(w, p.seed)
	if err != nil {
		return err
	}
	for k, v := range rungs {
		m[k] = v
	}
	if w.saturated() {
		wr.Ledger, m["ledger.explained_ns"], m["ledger.unexplained_ns"] = ledger(w, tr.nLeaf, m, tr.crossings(), m["cpu_ns_per_pkt"])
	}
	wr.PerLayer = complete(perLayer, m)

	if p.outDir != "" {
		trace := map[string]any{"workload": w.name, "aggregates": wr.PerLayer, "spans": tr.last.spans}
		if err := writeJSON(filepath.Join(p.outDir, "trace-"+w.name+".json"), trace); err != nil {
			return err
		}
	}
	return nil
}

func printWorkload(out io.Writer, w *workload, wr *workloadReport) {
	fmt.Fprintf(out, "\n%s  (%s, %s)  attempted=%d failed=%d failed_ratio=%.6f correct=%v\n",
		w.name, w.topo, wr.Fabric, wr.Attempted, wr.Failed, ratio(float64(wr.Failed), float64(wr.Attempted)), wr.Correct)
	if wr.EndToEnd != nil {
		fmt.Fprintf(out, "  end to end (latency percentiles over %.0f timed operations per window)\n", wr.LatSamplesPerWindow)
		for _, d := range endToEnd {
			fmt.Fprintf(out, "    %-38s %16.4f %s\n", d.Name, wr.EndToEnd[d.Name].Value, d.Unit)
		}
		fmt.Fprintf(out, "  as measured, on a host %.2f times as slow as the reference (median of the passes)\n", median(wr.HostSlowdown))
		for _, d := range endToEnd {
			if v, ok := wr.AsMeasured[d.Name]; ok {
				fmt.Fprintf(out, "    %-38s %16.4f %s\n", d.Name, v.Value, d.Unit)
			}
		}
	}
	if wr.PerLayer != nil {
		fmt.Fprintf(out, "  per layer\n")
		names := make([]string, 0, len(wr.PerLayer))
		for k := range wr.PerLayer {
			names = append(names, k)
		}
		sort.Strings(names)
		for _, k := range names {
			fmt.Fprintf(out, "    %-38s %16.4f %s\n", k, wr.PerLayer[k].Value, wr.PerLayer[k].Unit)
		}
	}
	if wr.Ledger != nil {
		cpu := wr.PerLayer["ledger.explained_ns"].Value + wr.PerLayer["ledger.unexplained_ns"].Value
		printLedger(out, wr.Ledger, cpu, wr.PerLayer["ledger.explained_ns"].Value, wr.PerLayer["ledger.unexplained_ns"].Value)
	}
}
