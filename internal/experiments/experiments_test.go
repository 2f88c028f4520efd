package experiments

import (
	"math"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/meanshift"
	"repro/internal/simnet"
)

// smallFig4 keeps unit-test runtime modest while preserving the shape.
func smallFig4() Fig4Config {
	cfg := DefaultFig4Config()
	cfg.Scales = []int{8, 16, 64, 128}
	cfg.PointsPerCluster = 60
	return cfg
}

// TestFig4Shape checks the paper's three claims on the regenerated figure:
// single-node time grows roughly linearly with scale; the deep tree beats
// the flat tree at the largest scale; and the deep curve stays much
// flatter than the single curve.
func TestFig4Shape(t *testing.T) {
	rows, err := RunFig4(smallFig4())
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 4 {
		t.Fatalf("got %d rows", len(rows))
	}
	first, last := rows[0], rows[len(rows)-1]
	scaleRatio := float64(last.Scale) / float64(first.Scale) // 16x

	// Claim 1: single-node grows with the input (at least half-linearly;
	// timing noise and cache effects blur exact linearity).
	singleRatio := float64(last.Single) / float64(first.Single)
	if singleRatio < scaleRatio/4 {
		t.Errorf("single-node grew only %.1fx over a %.0fx scale increase", singleRatio, scaleRatio)
	}

	// Claim 2: at the largest scale the deep tree beats flat and single.
	if last.Deep >= last.Flat {
		t.Errorf("deep (%v) not faster than flat (%v) at scale %d", last.Deep, last.Flat, last.Scale)
	}
	if last.Deep >= last.Single {
		t.Errorf("deep (%v) not faster than single (%v) at scale %d", last.Deep, last.Single, last.Scale)
	}

	// Claim 3: the deep curve is much flatter than single's.
	deepRatio := float64(last.Deep) / float64(first.Deep)
	if deepRatio > singleRatio {
		t.Errorf("deep grew %.1fx, single %.1fx — deep should be flatter", deepRatio, singleRatio)
	}

	// Sanity: the distributed computation still finds the true modes.
	for _, r := range rows {
		if r.Peaks < 1 || r.Peaks > 2*smallFig4().Clusters+2 {
			t.Errorf("scale %d: %d peaks is implausible", r.Scale, r.Peaks)
		}
	}
	t.Logf("\n%s", Fig4Table(rows))
}

func TestFig4DefaultsApplied(t *testing.T) {
	// Empty config falls back to defaults (just verify it runs one scale).
	cfg := DefaultFig4Config()
	cfg.Scales = []int{4}
	cfg.PointsPerCluster = 30
	rows, err := RunFig4(cfg)
	if err != nil || len(rows) != 1 {
		t.Fatalf("rows=%v err=%v", rows, err)
	}
	if rows[0].DeepFanOut != 2 {
		t.Errorf("deep fan-out for 4 leaves = %d, want 2", rows[0].DeepFanOut)
	}
}

// TestStartupShape checks §2.2's claims: the flat startup exceeds 60s, the
// tree startup is under 20s, the speedup is at least 3x, and suppression
// collapses 512 report messages to the class count.
func TestStartupShape(t *testing.T) {
	res, err := RunStartup(DefaultStartupConfig())
	if err != nil {
		t.Fatal(err)
	}
	if res.FlatTotal < 60*time.Second {
		t.Errorf("flat startup %v, paper reports over 1 minute", res.FlatTotal)
	}
	if res.TreeTotal > 20*time.Second {
		t.Errorf("tree startup %v, paper reports under 20 seconds", res.TreeTotal)
	}
	if res.Speedup < 3 {
		t.Errorf("speedup %.1fx, paper reports 3.4x", res.Speedup)
	}
	if res.ReportMsgsFlat != 512 {
		t.Errorf("flat report messages = %d, want 512", res.ReportMsgsFlat)
	}
	if res.ReportMsgsTree > DefaultStartupConfig().ReportClasses {
		t.Errorf("tree forwards %d report messages, want <= %d classes",
			res.ReportMsgsTree, DefaultStartupConfig().ReportClasses)
	}
	// The composed tree estimates must stay accurate (within a few jitter
	// widths even after composition across levels).
	if res.SkewErrTree > 10*DefaultStartupConfig().ProbeJitter {
		t.Errorf("tree skew error %v too large", res.SkewErrTree)
	}
	t.Logf("\n%s", StartupTable(res))
}

// TestThroughputShape checks that the TBON front-end sustains a higher
// record rate than the flat front-end at scale, and that the gap widens
// as daemons are added (the flat front-end is the bottleneck).
func TestThroughputShape(t *testing.T) {
	if testing.Short() {
		t.Skip("throughput overlay runs in -short mode")
	}
	cfg := ThroughputConfig{
		DaemonCounts: []int{16, 128},
		// 400 rounds span a dozen egress flush windows per daemon: at 60
		// the tail of every burst left by age flush, one 2 ms bound per
		// tree level, and that fixed cost — not the front-end — decided
		// the flat-vs-tree comparison.
		Rounds:    400,
		Functions: 32,
		FanOut:    8,
	}
	rows, err := RunThroughput(cfg)
	if err != nil {
		t.Fatal(err)
	}
	last := rows[len(rows)-1]
	if last.TreeRate <= last.FlatRate {
		t.Errorf("at %d daemons tree rate %.0f <= flat rate %.0f",
			last.Daemons, last.TreeRate, last.FlatRate)
	}
	firstGap := rows[0].TreeRate / rows[0].FlatRate
	lastGap := last.TreeRate / last.FlatRate
	if lastGap < firstGap/2 {
		t.Errorf("tree advantage shrank: %.2fx at %d daemons, %.2fx at %d",
			firstGap, rows[0].Daemons, lastGap, last.Daemons)
	}
	t.Logf("\n%s", ThroughputTable(rows))
}

// TestOverheadExact verifies the paper's arithmetic to the digit.
func TestOverheadExact(t *testing.T) {
	rows, err := RunOverhead()
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 2 {
		t.Fatalf("got %d rows", len(rows))
	}
	if rows[0].BackEnds != 256 || rows[0].Internal != 16 || rows[0].Overhead != 0.0625 {
		t.Errorf("256-back-end row: %+v", rows[0])
	}
	if rows[1].BackEnds != 4096 || rows[1].Internal != 272 {
		t.Errorf("4096-back-end row: %+v", rows[1])
	}
	if math.Abs(rows[1].Overhead-272.0/4096.0) > 1e-12 {
		t.Errorf("overhead = %v", rows[1].Overhead)
	}
	t.Logf("\n%s", OverheadTable(rows))
}

func TestSGFARun(t *testing.T) {
	if testing.Short() {
		t.Skip("thousand-node overlay in -short mode")
	}
	cfg := SGFAConfig{Leaves: 256, FanOut: 8, Shapes: 4, Depth: 3}
	res, err := RunSGFA(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !res.FoldCorrect {
		t.Errorf("fold incorrect: %d classes", res.Classes)
	}
	if res.Reduction < 4 {
		t.Errorf("payload reduction %.1fx, want substantial (>4x)", res.Reduction)
	}
	t.Logf("\n%s", SGFATable(res))
}

func TestFanOutSweep(t *testing.T) {
	cfg := FanOutSweepConfig{
		Leaves:  64,
		FanOuts: []int{2, 8, 64},
		Fig4:    smallFig4(),
	}
	rows, err := RunFanOutSweep(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 3 {
		t.Fatalf("got %d rows", len(rows))
	}
	// The flat end of the sweep (fan-out = leaves) must not beat every
	// deeper tree: bounded fan-out is the point of the paper.
	flat := rows[len(rows)-1]
	bestDeep := rows[0].Makespan
	for _, r := range rows[:len(rows)-1] {
		if r.Makespan < bestDeep {
			bestDeep = r.Makespan
		}
	}
	if flat.Makespan < bestDeep/2 {
		t.Errorf("flat (%v) dramatically beats every bounded fan-out (best %v)", flat.Makespan, bestDeep)
	}
	t.Logf("\n%s", FanOutTable(cfg.Leaves, rows))
}

func TestSyncPolicyAblation(t *testing.T) {
	rows, err := RunSyncPolicyAblation(8, 300*time.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	byName := map[string]SyncPolicyRow{}
	for _, r := range rows {
		byName[r.Policy] = r
	}
	// WaitForAll must wait for the straggler; Null must not.
	if byName["waitforall"].Latency < 250*time.Millisecond {
		t.Errorf("waitforall latency %v did not include the straggler", byName["waitforall"].Latency)
	}
	if byName["nullsync"].Latency > 250*time.Millisecond {
		t.Errorf("nullsync latency %v waited for the straggler", byName["nullsync"].Latency)
	}
	if byName["timeout"].Latency >= byName["waitforall"].Latency {
		t.Errorf("timeout (%v) not faster than waitforall (%v)",
			byName["timeout"].Latency, byName["waitforall"].Latency)
	}
	t.Logf("\n%s", SyncPolicyTable(rows))
}

func TestTransportAblation(t *testing.T) {
	if testing.Short() {
		t.Skip("TCP overlay in -short mode")
	}
	rows, err := RunTransportAblation(16, 5)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 2 {
		t.Fatalf("got %d rows", len(rows))
	}
	t.Logf("\n%s", TransportTable(16, rows))
}

// TestMakespanModelMonotone: adding communication cost can only increase
// the modeled makespan.
func TestMakespanModelMonotone(t *testing.T) {
	cfg := smallFig4()
	centers := meanshift.DefaultCenters(cfg.Clusters, cfg.Field)
	leafData := make([][]meanshift.Point, 16)
	for i := range leafData {
		leafData[i] = meanshift.Generate(meanshift.GenParams{
			Centers: centers, Spread: cfg.Spread,
			PointsPerCluster: 40, CenterJitter: cfg.Jitter, Seed: int64(i),
		})
	}
	tree := topologyFlat(16)
	cheap := cfg
	cheap.Net = simnet.Model{} // free network
	costly := cfg
	costly.Net = simnet.Model{Latency: 10 * time.Millisecond, Bandwidth: 1e6}
	tCheap, _, err := distributedMakespan(tree, leafData, cheap)
	if err != nil {
		t.Fatal(err)
	}
	tCostly, _, err := distributedMakespan(tree, leafData, costly)
	if err != nil {
		t.Fatal(err)
	}
	// 16 children x >=10ms latency each must appear in the makespan.
	if tCostly < tCheap+100*time.Millisecond {
		t.Errorf("costly net makespan %v vs free %v: transfer cost missing", tCostly, tCheap)
	}
}

// TestRecoveryStudy: every shape recovers, produces the correct
// post-recovery answer, and reports sane latencies (detection at least the
// configured timeout, totals dominated by detection, not rewiring).
func TestRecoveryStudy(t *testing.T) {
	cfg := DefaultRecoveryConfig()
	cfg.Shapes = []string{"kary:2^3", "kary:4^2", "kary:8^2"}
	rows, err := RunRecovery(cfg)
	if err != nil {
		t.Fatal(err)
	}
	// One row per (transport, shape): live rewiring runs on both fabrics.
	if len(rows) != 6 {
		t.Fatalf("got %d rows, want 6 (3 shapes x 2 fabrics)", len(rows))
	}
	seen := map[string]bool{}
	for _, r := range rows {
		seen[r.Transport] = true
		if !r.Correct {
			t.Errorf("%s/%s: post-recovery reduction incorrect", r.Transport, r.Shape)
		}
		if r.Detection < cfg.Timeout {
			t.Errorf("%s/%s: detection %v under the %v timeout", r.Transport, r.Shape, r.Detection, cfg.Timeout)
		}
		if r.Rewire <= 0 || r.Total < r.Detection {
			t.Errorf("%s/%s: implausible latencies %+v", r.Transport, r.Shape, r)
		}
		if r.Orphans <= 0 {
			t.Errorf("%s/%s: internal victim %d adopted no orphans", r.Transport, r.Shape, r.Victim)
		}
	}
	if !seen["chan"] || !seen["tcp"] {
		t.Errorf("fabrics measured = %v, want both chan and tcp", seen)
	}
	t.Logf("\n%s", RecoveryTable(rows))
}

// TestElasticAblationShape is the elastic smoke: a scaled-down skewed
// run on the chan fabric where the controller must beat (or at worst
// match) the static tree on sustained throughput, mutate at least once
// under skew, mutate never under uniform load, and lose nothing on the
// exactly-once fabric throughout.
func TestElasticAblationShape(t *testing.T) {
	cfg := ElasticConfig{
		Spec:        "kary:4^2",
		HotQuota:    1200,
		ColdBurst:   1,
		Window:      8,
		Transport:   core.ChanTransport,
		Period:      30 * time.Millisecond,
		Cooldown:    120 * time.Millisecond,
		UniformSecs: 1,
		SplitAbove:  1.7,
		Timeout:     60 * time.Second,
	}
	rows, err := RunElastic(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 3 {
		t.Fatalf("rows = %d, want 3", len(rows))
	}
	byMode := map[string]ElasticRow{}
	for _, r := range rows {
		byMode[r.Mode] = r
		if r.Lost != 0 {
			t.Errorf("%s arm lost %d packets on the exactly-once fabric", r.Mode, r.Lost)
		}
		if r.Delivered == 0 || r.RatePkts <= 0 {
			t.Errorf("%s arm delivered nothing: %+v", r.Mode, r)
		}
	}
	st, el, un := byMode["static"], byMode["elastic"], byMode["uniform"]
	if st.Splits != 0 || st.Merges != 0 {
		t.Errorf("static arm mutated: %+v", st)
	}
	if el.Splits == 0 {
		t.Errorf("elastic arm never split under skew: %+v", el)
	}
	if el.RatePkts < st.RatePkts {
		t.Errorf("elastic %.0f pkts/s below static %.0f", el.RatePkts, st.RatePkts)
	}
	if un.Splits != 0 || un.Merges != 0 {
		t.Errorf("uniform load mutated the tree: %+v", un)
	}
	t.Logf("\n%s", ElasticTable(cfg, rows))
}
