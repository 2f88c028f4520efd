package query

import (
	"fmt"
	"math"
	"reflect"
	"sort"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/packet"
	"repro/internal/recovery"
	"repro/internal/session"
	"repro/internal/sketch"
	"repro/internal/topology"
)

func testAttrs(rank core.Rank) AttrSource {
	return func() map[string]float64 {
		return map[string]float64{
			"load": float64(rank) / 10,
			"zone": float64(rank % 3),
		}
	}
}

// TestSessionEnginesShareOverlay: several tenant engines multiplex over
// one overlay, each computes the same results it would alone, and closing
// one engine leaves the others (and the overlay) fully live.
func TestSessionEnginesShareOverlay(t *testing.T) {
	tree, err := topology.ParseSpec("kary:3^2")
	if err != nil {
		t.Fatal(err)
	}
	nw, err := NewNetwork(tree, testAttrs)
	if err != nil {
		t.Fatal(err)
	}
	defer nw.Shutdown()
	mgr := session.NewManager(nw, session.Config{MaxSessions: 4})

	leaves := tree.Leaves()
	want := float64(len(leaves))
	check := func(e *Engine) {
		t.Helper()
		res, err := e.Run("select count(rank)", 10*time.Second)
		if err != nil {
			t.Fatal(err)
		}
		if got := res.Rows[0].Values[0]; got != want {
			t.Errorf("count = %g, want %g", got, want)
		}
	}

	engines := make([]*Engine, 3)
	for i := range engines {
		sess, err := mgr.Open([]string{"alice", "bob", "carol"}[i])
		if err != nil {
			t.Fatal(err)
		}
		engines[i] = NewSessionEngine(nw, sess)
	}
	var wg sync.WaitGroup
	for _, e := range engines {
		for j := 0; j < 2; j++ {
			wg.Add(1)
			go func(e *Engine) { defer wg.Done(); check(e) }(e)
		}
	}
	wg.Wait()

	// Closing bob releases only bob: the overlay and the other engines
	// keep answering, and bob's next query fails fast (namespace gone).
	if err := engines[1].Close(); err != nil {
		t.Fatal(err)
	}
	check(engines[0])
	check(engines[2])
	if _, err := engines[1].Run("select count(rank)", time.Second); err == nil {
		t.Error("closed engine still answered")
	}
	if st := engines[0].Stats(); st == nil || st["streams_opened"] < 2 {
		t.Errorf("tenant stats = %v", st)
	}
	if engines[1].Stats() == nil {
		t.Error("closed tenant's stats gone (should survive close)")
	}
}

// TestLegacyEngineCloseLeavesOverlayUp: the classic NewEngine construction
// separates Close (engine) from Shutdown (overlay).
func TestLegacyEngineCloseLeavesOverlayUp(t *testing.T) {
	tree, err := topology.ParseSpec("kary:2^2")
	if err != nil {
		t.Fatal(err)
	}
	eng, err := NewEngine(tree, testAttrs)
	if err != nil {
		t.Fatal(err)
	}
	if err := eng.Close(); err != nil {
		t.Fatal(err)
	}
	// Close must NOT have killed the overlay for other clients.
	res, err := eng.Run("select count(rank)", 10*time.Second)
	if err != nil {
		t.Fatalf("overlay dead after engine Close: %v", err)
	}
	if got := res.Rows[0].Values[0]; got != float64(len(tree.Leaves())) {
		t.Errorf("count = %g", got)
	}
	if err := eng.Shutdown(); err != nil {
		t.Fatal(err)
	}
	if _, err := eng.Run("select count(rank)", time.Second); err == nil {
		t.Error("overlay answered after Shutdown")
	}
}

// TestEngineSketchWorkloads runs each sketch kind end to end through the
// engine and checks the reduced result against the exact ground truth
// recomputed from the same deterministic generator.
// groundTruth is what the leaves generate for a sketch request of the
// given seed and per-leaf count: each key's count, and every value sorted.
func groundTruth(seed int64, n int, ranks []core.Rank) (freq map[string]int64, vals []float64) {
	freq = map[string]int64{}
	for _, r := range ranks {
		sketch.GenStream(seed, r, n, func(key string, val float64) {
			freq[key]++
			vals = append(vals, val)
		})
	}
	sort.Float64s(vals)
	return freq, vals
}

func TestEngineSketchWorkloads(t *testing.T) {
	tree, err := topology.ParseSpec("kary:3^2")
	if err != nil {
		t.Fatal(err)
	}
	eng, err := NewEngine(tree, testAttrs)
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Shutdown()
	ranks := tree.Leaves()

	// Every request below generates the same items: seed 7, 500 per leaf.
	freq, vals := groundTruth(7, 500, ranks)
	req := sketch.Request{Kind: sketch.KindCountMin, Param: 2048, N: 500, Seed: 7}
	p, err := eng.Sketch(req, 10*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	cm, err := sketch.CountMinFromPacket(p)
	if err != nil {
		t.Fatal(err)
	}
	for key, n := range freq {
		if est := cm.Estimate(key); est < n {
			t.Fatalf("count-min underestimated %q: %d < %d", key, est, n)
		}
	}

	req = sketch.Request{Kind: sketch.KindHLL, Param: 12, N: 500, Seed: 7}
	p, err = eng.Sketch(req, 10*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	hll, err := sketch.HLLFromPacket(p)
	if err != nil {
		t.Fatal(err)
	}
	est := float64(hll.Estimate())
	if rel := math.Abs(est-float64(len(freq))) / float64(len(freq)); rel > 0.07 {
		t.Errorf("HLL estimate %g vs %d (rel %.3f)", est, len(freq), rel)
	}

	req = sketch.Request{Kind: sketch.KindTDigest, N: 500, Seed: 7}
	p, err = eng.Sketch(req, 10*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	td, err := sketch.TDigestFromPacket(p)
	if err != nil {
		t.Fatal(err)
	}
	if got, want := td.Quantile(0.5), vals[(len(vals)-1)/2]; math.Abs(got-want) > 2 {
		t.Errorf("median %g vs exact %g", got, want)
	}

	if _, err := eng.Sketch(sketch.Request{Kind: "bogus"}, time.Second); err == nil {
		t.Error("bogus sketch kind accepted")
	}
}

// decodeSketch decodes a merged sketch packet into its kind's state
// object, which reflect.DeepEqual can then compare cell-for-cell.
func decodeSketch(t *testing.T, k sketch.Kind, p *packet.Packet) any {
	t.Helper()
	var v any
	var err error
	switch k {
	case sketch.KindCountMin:
		v, err = sketch.CountMinFromPacket(p)
	case sketch.KindHLL:
		v, err = sketch.HLLFromPacket(p)
	case sketch.KindTDigest:
		v, err = sketch.TDigestFromPacket(p)
	default:
		t.Fatalf("unknown kind %q", k)
	}
	if err != nil {
		t.Fatalf("decode %s: %v", k, err)
	}
	return v
}

// sketchMatches compares one round's decoded sketch against the baseline
// and returns "" on a match. Count-min and HLL merges are shape-independent
// (entrywise add / register max), so any correct round is bit-identical.
// A t-digest's centroid grouping depends on the merge topology, which
// adoption legitimately changes; its lost/duplicate detector is the total
// weight — Count() moves by exactly the weight of a dropped or doubled
// contribution — plus tight quantile agreement.
func sketchMatches(k sketch.Kind, got, base any) string {
	if k != sketch.KindTDigest {
		if !reflect.DeepEqual(got, base) {
			return "state not bit-identical to the failure-free baseline"
		}
		return ""
	}
	g, b := got.(*sketch.TDigest), base.(*sketch.TDigest)
	if g.Count() != b.Count() {
		return fmt.Sprintf("total weight %g, baseline %g (a contribution was lost or duplicated)",
			g.Count(), b.Count())
	}
	for _, q := range []float64{0.1, 0.5, 0.9} {
		if d := math.Abs(g.Quantile(q) - b.Quantile(q)); d > 1 {
			return fmt.Sprintf("q%.1f drifted %.3f from the baseline", q, d)
		}
	}
	return ""
}

// TestMixedTenantSketchKillBitIdentical: three tenants run the three
// sketch kinds concurrently over one exactly-once overlay while an
// internal node is crashed and recovered mid-run. Count-min and t-digest
// merges are NOT idempotent — one duplicated or dropped contribution
// changes cells and centroid weights — so demanding every successful
// round match the failure-free baseline (bit-identical state for the
// shape-independent kinds, bit-identical total weight for t-digest; see
// sketchMatches) is an end-to-end exactness check on replay and dedup.
// Rounds that straddle the crash may time out and be retried; any round
// that completes must be exact.
func TestMixedTenantSketchKillBitIdentical(t *testing.T) {
	tree, err := topology.ParseSpec("kary:4^2")
	if err != nil {
		t.Fatal(err)
	}
	nw, err := NewNetwork(tree, testAttrs, WithLinkWindow(8))
	if err != nil {
		t.Fatal(err)
	}
	defer nw.Shutdown()
	rec, err := recovery.New(nw, recovery.Config{Timeout: time.Second})
	if err != nil {
		t.Fatal(err)
	}
	smgr := session.NewManager(nw, session.Config{MaxSessions: 3})
	defer smgr.Close()

	kinds := []sketch.Kind{sketch.KindCountMin, sketch.KindHLL, sketch.KindTDigest}
	reqs := map[sketch.Kind]sketch.Request{
		sketch.KindCountMin: {Kind: sketch.KindCountMin, Param: 1024, N: 400, Seed: 11},
		sketch.KindHLL:      {Kind: sketch.KindHLL, Param: 12, N: 400, Seed: 11},
		sketch.KindTDigest:  {Kind: sketch.KindTDigest, N: 400, Seed: 11},
	}
	engines := map[sketch.Kind]*Engine{}
	for _, k := range kinds {
		sess, err := smgr.Open(string(k))
		if err != nil {
			t.Fatal(err)
		}
		engines[k] = NewSessionEngine(nw, sess)
	}

	// Failure-free baseline round per kind. Back-ends rebuild their local
	// sketches deterministically from the request seed, so every correct
	// round reproduces these exact bits.
	baseline := map[sketch.Kind]any{}
	for _, k := range kinds {
		p, err := engines[k].Sketch(reqs[k], 30*time.Second)
		if err != nil {
			t.Fatalf("baseline %s: %v", k, err)
		}
		baseline[k] = decodeSketch(t, k, p)
	}

	// Tenant loops: keep running rounds until each has banked enough
	// successful post-kill rounds. Timeouts (rounds straddling the crash
	// or the recovery) retry; successes must match the baseline exactly.
	const wantRounds = 3
	var pre, post [3]atomic.Int64
	killed := make(chan struct{})
	done := make(chan struct{})
	var wg sync.WaitGroup
	for i, k := range kinds {
		wg.Add(1)
		go func(i int, k sketch.Kind) {
			defer wg.Done()
			deadline := time.Now().Add(90 * time.Second)
			for round := 0; ; round++ {
				select {
				case <-done:
					return
				default:
				}
				if time.Now().After(deadline) {
					t.Errorf("%s: deadline with %d/%d post-kill rounds", k, post[i].Load(), wantRounds)
					return
				}
				p, err := engines[k].Sketch(reqs[k], 5*time.Second)
				if err != nil {
					continue // straddled the crash; retry on a fresh stream
				}
				if why := sketchMatches(k, decodeSketch(t, k, p), baseline[k]); why != "" {
					t.Errorf("%s round %d: %s", k, round, why)
					return
				}
				select {
				case <-killed:
					if post[i].Add(1) >= wantRounds {
						return
					}
				default:
					pre[i].Add(1)
				}
			}
		}(i, k)
	}

	// Crash an internal node once every tenant is mid-run, then drive
	// recovery; the tenants keep querying throughout.
	waitUntil := func(cond func() bool, what string) {
		deadline := time.Now().Add(60 * time.Second)
		for !cond() {
			if time.Now().After(deadline) {
				close(done)
				t.Fatalf("timed out waiting for %s", what)
			}
			time.Sleep(2 * time.Millisecond)
		}
	}
	waitUntil(func() bool {
		return pre[0].Load() >= 1 && pre[1].Load() >= 1 && pre[2].Load() >= 1
	}, "all tenants to complete a pre-kill round")
	victim := tree.InternalNodes()[1]
	if err := nw.Kill(victim); err != nil {
		t.Fatal(err)
	}
	close(killed)
	var recErr error
	for attempt := 0; attempt < 5; attempt++ {
		if _, recErr = rec.Recover(victim); recErr == nil {
			break
		}
		time.Sleep(50 * time.Millisecond)
	}
	if recErr != nil {
		close(done)
		t.Fatalf("recover %d: %v", victim, recErr)
	}
	wg.Wait()
	m := nw.Metrics()
	t.Logf("pre=[%d %d %d] post=[%d %d %d] replayed=%d dups-dropped=%d ringHW=%d",
		pre[0].Load(), pre[1].Load(), pre[2].Load(),
		post[0].Load(), post[1].Load(), post[2].Load(),
		m.PacketsReplayed.Load(), m.DupsDropped.Load(), m.ReplayRingHighWater.Load())
}

// NewEngine builds a private overlay and an engine over it — the classic
// single-tool construction. Close releases the engine; call Shutdown (or
// keep a Network handle) to tear the overlay down.
func NewEngine(tree *topology.Tree, attrs func(rank core.Rank) AttrSource, opts ...Option) (*Engine, error) {
	nw, err := NewNetwork(tree, attrs, opts...)
	if err != nil {
		return nil, err
	}
	return &Engine{nw: nw, owned: true}, nil
}
