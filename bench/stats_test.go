package main

import (
	"bytes"
	"math"
	"path/filepath"
	"testing"
)

func near(a, b float64) bool { return math.Abs(a-b) < 1e-9 }

func TestMedianAndPercentile(t *testing.T) {
	if got := median(nil); got != 0 {
		t.Errorf("median(nil) = %v", got)
	}
	if got := median([]float64{5, 1, 3}); got != 3 {
		t.Errorf("median odd = %v, want 3", got)
	}
	if got := median([]float64{4, 1, 3, 2}); got != 2.5 {
		t.Errorf("median even = %v, want 2.5", got)
	}
	xs := make([]float64, 101) // 0..100: the q-quantile is 100q
	for i := range xs {
		xs[i] = float64(100 - i)
	}
	for _, q := range []float64{0, 0.25, 0.5, 0.99, 1} {
		if got := percentile(xs, q); !near(got, 100*q) {
			t.Errorf("percentile(0..100, %v) = %v, want %v", q, got, 100*q)
		}
	}
	if xs[0] != 100 {
		t.Error("percentile must not reorder its input")
	}
}

func TestSpread(t *testing.T) {
	// Quartiles of 1..9 are 3 and 7, the median 5.
	if got := spread([]float64{1, 2, 3, 4, 5, 6, 7, 8, 9}); !near(got, 0.8) {
		t.Errorf("spread(1..9) = %v, want 0.8", got)
	}
	if got := spread([]float64{7}); got != 0 {
		t.Errorf("spread of one value = %v, want 0", got)
	}
}

// A known series: three windows of one second; window 0 holds latencies
// 1..100 ms, window 1 holds 201..300 ms, window 2 holds nothing, and two
// samples fall outside every window.
func TestWindowedLatencyReducers(t *testing.T) {
	const ms = int64(1e6)
	bounds := []int64{1000 * ms, 2000 * ms, 3000 * ms, 4000 * ms}
	var samples []latSample
	for i := int64(1); i <= 100; i++ {
		samples = append(samples, latSample{doneNs: 1000*ms + i*ms, latNs: i * ms})
		samples = append(samples, latSample{doneNs: 2000*ms + i*ms, latNs: (200 + i) * ms})
	}
	samples = append(samples, latSample{doneNs: 999 * ms, latNs: 5000 * ms}, latSample{doneNs: 4000 * ms, latNs: 5000 * ms})

	perWin := splitWindows(samples, bounds)
	if len(perWin) != 3 || len(perWin[0]) != 100 || len(perWin[1]) != 100 || len(perWin[2]) != 0 {
		t.Fatalf("windows hold %d, %d, %d samples, want 100, 100, 0", len(perWin[0]), len(perWin[1]), len(perWin[2]))
	}
	// The latency metrics are the per-window percentile, then the median
	// across the windows that timed something (passResult.latWindows).
	pr := &passResult{}
	for _, xs := range perWin {
		pr.windows = append(pr.windows, window{latN: len(xs), latP50: percentile(xs, 0.5), latP99: percentile(xs, 0.99)})
	}
	// Per-window p99 of 1..100 is 99.01, of 201..300 is 299.01; the empty
	// window is left out, so the median across windows is their mean.
	if got := median(pr.latWindows(func(w window) float64 { return w.latP99 })); !near(got, (99.01+299.01)/2) {
		t.Errorf("windowed p99 = %v, want %v", got, (99.01+299.01)/2)
	}
	if got := median(pr.latWindows(func(w window) float64 { return w.latP50 })); !near(got, (50.5+250.5)/2) {
		t.Errorf("windowed p50 = %v, want %v", got, (50.5+250.5)/2)
	}
	if got := splitWindows(samples, bounds[:1]); got != nil {
		t.Errorf("one bound makes no window, got %v", got)
	}
}

func TestVerdict(t *testing.T) {
	cases := []struct {
		name                    string
		a, b, bound, sprA, sprB float64
		better, want            string
	}{
		{"lower is better, within bound", 100, 105, 0.10, 0.01, 0.01, "lower", "ok"},
		{"lower is better, beyond bound", 100, 115, 0.10, 0.01, 0.01, "lower", "worse"},
		{"lower is better, improved", 100, 50, 0.10, 0.01, 0.01, "lower", "ok"},
		{"higher is better, beyond bound", 100, 85, 0.10, 0.01, 0.01, "higher", "worse"},
		{"higher is better, improved", 100, 150, 0.10, 0.01, 0.01, "higher", "ok"},
		{"noisy input hides a regression", 100, 115, 0.10, 0.20, 0.01, "lower", "unresolved"},
		{"noisy input hides no change", 100, 100, 0.10, 0.01, 0.20, "lower", "unresolved"},
	}
	for _, c := range cases {
		if _, got := verdict(c.a, c.b, c.bound, c.sprA, c.sprB, c.better); got != c.want {
			t.Errorf("%s: %s, want %s", c.name, got, c.want)
		}
	}
}

// A workload, a metric or a value that an input lacks must fail the
// comparison: absent reads as 0, and 0 would pass for an improvement of
// every lower-is-better metric.
func TestCompareCountsMissingAsWorse(t *testing.T) {
	full := func() *report {
		r := &report{Workloads: map[string]*workloadReport{}}
		for _, w := range workloads {
			m := map[string]float64{}
			for _, d := range endToEnd {
				m[d.Name] = 1
			}
			r.Workloads[w.name] = &workloadReport{EndToEnd: complete(endToEnd, m)}
		}
		return r
	}
	noWorkload := full()
	delete(noWorkload.Workloads, workloads[1].name)
	noMetric := full()
	delete(noMetric.Workloads[workloads[0].name].EndToEnd, "lat_p50_ms")
	zero := full() // a wedged run that finished no window
	zero.Workloads[workloads[0].name].EndToEnd["lat_p95_ms"] = Value{Value: 0, Unit: "ms"}

	dir := t.TempDir()
	write := func(name string, r *report) string {
		path := filepath.Join(dir, name)
		if err := writeJSON(path, r); err != nil {
			t.Fatal(err)
		}
		return path
	}
	a := write("a.json", full())
	for _, c := range []struct {
		name string
		b    *report
		want int
	}{
		{"same", full(), 0},
		{"workload missing", noWorkload, 1},
		{"metric missing", noMetric, 1},
		{"value zero", zero, 1},
	} {
		b := write("b.json", c.b)
		var out bytes.Buffer
		if got := compareReports(a, b, &out); got != c.want {
			t.Errorf("%s in B: exit %d, want %d\n%s", c.name, got, c.want, out.String())
		}
		if got := compareReports(b, a, &out); got != c.want {
			t.Errorf("%s in A: exit %d, want %d", c.name, got, c.want)
		}
	}
}

func TestHostKernelRuns(t *testing.T) {
	d, err := hostKernel()
	if err != nil || d <= 0 {
		t.Fatalf("hostKernel: %v, %v", d, err)
	}
	t.Logf("hostKernel took %v (hostRef %v)", d, hostRef)
}

// Only what the host's speed bounds is scaled: rate, latency and set-up
// where the overlay runs flat out, and of a timer-driven workload's latency
// the part above its age flushes (4 ms on reduce_paced_tcp, 12 ms on
// command_rounds_tcp).
func TestOnReferenceHost(t *testing.T) {
	sat, paced, rounds := findWorkload("passthru_sat_tcp"), findWorkload("reduce_paced_tcp"), findWorkload("command_rounds_tcp")
	for _, c := range []struct {
		w        *workload
		metric   string
		measured float64
		want     float64
	}{
		{sat, "pkts_per_s", 100, 200}, {sat, "lat_p50_ms", 100, 50}, {sat, "lat_p95_ms", 100, 50},
		{sat, "allocs_per_pkt", 100, 100}, {sat, "setup_s", 100, 50},
		{paced, "setup_s", 100, 100}, {paced, "pkts_per_s", 100, 100},
		{paced, "lat_p50_ms", 8, 6}, {paced, "lat_p95_ms", 14, 9}, {paced, "lat_p50_ms", 3, 3},
		{rounds, "lat_p50_ms", 15, 13.5},
	} {
		if got := c.w.onReferenceHost(c.metric, c.measured, 2); got != c.want {
			t.Errorf("%s %s measured %v on a host twice as slow: %v, want %v", c.w.name, c.metric, c.measured, got, c.want)
		}
	}
}
