package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/packet"
	"repro/internal/session"
	"repro/internal/topology"
	"repro/internal/transport"
)

// options are the knobs of one pass over one workload.
type options struct {
	seed        int64
	window      time.Duration // length of one measured window
	warmup      time.Duration // run first and discarded
	windows     int           // measured windows
	traced      bool
	watchdog    time.Duration // no front-end delivery for this long is a wedge
	maxRestarts int
	outDir      string
	// wedgeAfter is the test hook for the watchdog: when positive, leaf 0
	// of the first attempt stops sending after that many packets.
	wedgeAfter int64
}

const (
	defaultWatchdog = 3 * time.Second
	shutdownCap     = 10 * time.Second
	spanEveryStream = 1024 // one operation in this many keeps its spans
	spanEveryRounds = 64   // closed-loop rounds are ~100/s; sample them denser
)

// leafState is one back-end's side of an attempt, on its own cache lines.
type leafState struct {
	sent atomic.Int64 // packets Send accepted
	done atomic.Bool  // handler left its send loop
	// traced pass only
	sendNs      atomic.Int64
	sendBlocked atomic.Int64
	// open loop only: how late each burst started (ns); owned by the
	// handler until done.
	late []int64
	_    [64]byte
}

// stamp is when a leaf called Send for one timed operation.
type stamp struct{ op, t atomic.Int64 }

const stampSlots = 1024

// setupTiming is where set-up time went (ms).
type setupTiming struct {
	newNetwork, sessionOpen, newStream, firstResult, total, shutdown float64
}

// window is one measured interval.
type window struct {
	secs                            float64
	ops                             int64 // results checked at the front-end
	cpuNs, mallocs                  int64
	latP50, latP95, latP99, latP999 float64 // ms; 0 with no sample
	latN                            int
	// traced pass only
	recvWaitNs, sendNs, sends, sendBlocked int64
}

// clientResult is what one front-end client goroutine reports at exit.
type clientResult struct {
	ok, failed int64
	wrong      int64 // of failed: results that arrived and were not the expected ones
	lat        []latSample
}

// attemptResult is everything one overlay instance produced.
type attemptResult struct {
	windows      []window
	ok, failed   int64
	wrong        int64
	wedged       bool
	hungShutdown bool
	timing       setupTiming
	liveHeapMB   float64 // forced-GC heap at the end of the last window
	heapStartMB  float64 // same at the start of the first (traced pass only)
	leafPkts     int64   // back-end packets accounted for over the measured windows
	counters     map[string]int64
	tiersUp      []tierTotals
	tiersDown    []tierTotals
	gcCycles     int64
	gcCPUSec     float64
	cpuSec       float64
	goroutines   int
	late         []int64
	mcastNs      int64
	mcasts       int64
	spans        []span
}

// attempt is one overlay instance running one workload.
type attempt struct {
	w      *workload
	o      *options
	in     *inputs
	idx    int // 0 for the first attempt of a pass, +1 per restart
	tree   *topology.Tree
	leafOf map[core.Rank]int
	nLeaf  int

	nw      *core.Network
	streams []*core.Stream
	timing  setupTiming

	stop         atomic.Bool
	gateMu       sync.Mutex
	gate         *sync.Cond // leaves at the run-ahead bound wait here
	leaf         []leafState
	stamps       [][]stamp
	t0           int64 // open-loop schedule origin (ns since epoch)
	sendErrs     atomic.Int64
	delivered    atomic.Int64 // results that reached a front-end client
	closing      atomic.Bool  // teardown has begun: what arrives now is not a result
	clientWedged atomic.Bool
	recvWaitNs   atomic.Int64
	mcastNs      atomic.Int64
	mcasts       atomic.Int64

	// oracles of the streaming workloads; build checks the first result
	// with them, the consumer the rest.
	rounds roundOracle
	seqs   *seqOracle
	// nextCmd is the first command index the closed-loop clients use;
	// build spent the ones before it.
	nextCmd int64

	spans *spanLog
	tiers *tierStats
}

func newAttempt(w *workload, o *options, idx int) (*attempt, error) {
	tree, err := topology.ParseSpec(w.topo)
	if err != nil {
		return nil, err
	}
	leaves := tree.Leaves()
	a := &attempt{w: w, o: o, idx: idx, tree: tree, nLeaf: len(leaves), leafOf: map[core.Rank]int{}, spans: &spanLog{}}
	for i, r := range leaves {
		a.leafOf[r] = i
	}
	a.in = newInputs(o.seed, a.nLeaf)
	a.leaf = make([]leafState, a.nLeaf)
	a.stamps = make([][]stamp, a.nLeaf)
	for i := range a.stamps {
		a.stamps[i] = make([]stamp, stampSlots)
	}
	a.rounds = roundOracle{base: a.in.sumBase, step: a.in.sumStep}
	a.seqs = newSeqOracle(a.nLeaf)
	a.gate = sync.NewCond(&a.gateMu)
	return a, nil
}

// ---- back-end side ------------------------------------------------------

// onBackEnd is the load generator: the overlay runs it in one goroutine
// per leaf, which is the system's own process model.
func (a *attempt) onBackEnd(be *core.BackEnd) error {
	li := a.leafOf[be.Rank()]
	if a.w.kind == commandRounds {
		a.echo(be, li)
	} else {
		a.stream(be, li)
	}
	a.leaf[li].done.Store(true)
	// Keep consuming: Recv is where downstream credits are returned.
	for {
		if _, err := be.Recv(); err != nil {
			return nil
		}
	}
}

// stream waits for the start command, then sends until told to stop.
func (a *attempt) stream(be *core.BackEnd, li int) {
	p, err := be.Recv()
	if err != nil {
		return
	}
	sid := p.StreamID
	t0, _ := p.Int(0)
	ls := &a.leaf[li]
	v, step := a.in.base[li], a.in.step[li]
	payload := a.in.payload[li]
	latEvery := int64(reduceLatEvery)
	if a.w.kind == passthruSat {
		latEvery = passLatEvery
	}
	for r := int64(0); !a.stop.Load(); r++ {
		if a.o.wedgeAfter > 0 && a.idx == 0 && li == 0 && r == a.o.wedgeAfter {
			for !a.stop.Load() {
				time.Sleep(time.Millisecond)
			}
			return
		}
		if a.w.kind == reducePaced && r%pacedBurst == 0 {
			due := t0 + r/pacedBurst*int64(pacedPeriod)
			for d := due - nowNs(); d > 0; d = due - nowNs() {
				if a.stop.Load() {
					return
				}
				time.Sleep(time.Duration(d))
			}
			ls.late = append(ls.late, nowNs()-due)
		}
		if a.w.kind == reduceSat && r-a.delivered.Load() >= reduceInFlight {
			a.gateMu.Lock()
			for r-a.delivered.Load() >= reduceInFlight && !a.stop.Load() {
				a.gate.Wait()
			}
			a.gateMu.Unlock()
		}
		var start int64
		if a.traced() {
			start = nowNs()
		}
		if a.w.saturated() && r%latEvery == 0 {
			st := &a.stamps[li][r/latEvery%stampSlots]
			st.t.Store(nowNs())
			st.op.Store(r)
		}
		if a.w.kind == passthruSat {
			err = be.Send(sid, dataTag, "%d %ac", passValue(li, r), payload)
		} else {
			err = be.Send(sid, dataTag, "%d", v)
			v += step
		}
		if err != nil {
			if !a.stop.Load() {
				a.sendErrs.Add(1)
			}
			return
		}
		if a.traced() {
			op := r
			if a.w.kind == passthruSat {
				op = passValue(li, r)
			}
			a.noteSend(ls, start, op, r%spanEveryStream == 0)
		}
		ls.sent.Store(r + 1)
	}
}

// echo answers every command with its own value.
func (a *attempt) echo(be *core.BackEnd, li int) {
	ls := &a.leaf[li]
	for n := int64(0); ; n++ {
		p, err := be.Recv()
		if err != nil {
			return
		}
		start := nowNs()
		v, _ := p.Int(0)
		if err := be.Send(p.StreamID, p.Tag, "%d", v); err != nil {
			if !a.stop.Load() {
				a.sendErrs.Add(1)
			}
			return
		}
		if a.traced() {
			a.noteSend(ls, start, v, v%spanEveryRounds == 0)
		}
		ls.sent.Store(n + 1)
	}
}

func (a *attempt) traced() bool { return a.o.traced }

// noteSend is the traced pass's account of one BackEnd.Send that began at
// start, with a span under operation op when it is a sampled one.
func (a *attempt) noteSend(ls *leafState, start, op int64, sampled bool) {
	end := nowNs()
	ls.sendNs.Add(end - start)
	if end-start > sendBlockedNs {
		ls.sendBlocked.Add(1)
	}
	if sampled {
		a.spans.add(0, roundSpanID(op), "core.send", start, end, op)
	}
}

// openGate wakes the leaves waiting at the run-ahead bound.
func (a *attempt) openGate() {
	a.gateMu.Lock()
	a.gate.Broadcast()
	a.gateMu.Unlock()
}

// halt tells every load generator to stop.
func (a *attempt) halt() {
	a.stop.Store(true)
	a.openGate()
}

// ---- set-up and tear-down ------------------------------------------------

// build brings the overlay up to its first correct result and records
// where the time went.
func (a *attempt) build() error {
	t := nowNs()
	nw, err := core.NewNetwork(shippingConfig(a.tree, a.w.fabric, a.onBackEnd, a.tiersHook()))
	if err != nil {
		return err
	}
	a.nw = nw
	a.timing.newNetwork = msSince(t)

	if a.w.kind == commandRounds {
		mgr := session.NewManager(nw, session.Config{})
		for _, tn := range tenants {
			t1 := nowNs()
			s, err := mgr.Open(tn.name)
			if err != nil {
				return err
			}
			a.timing.sessionOpen += msSince(t1)
			t1 = nowNs()
			st, err := s.NewStream(core.StreamSpec{Transformation: tn.tform, Synchronization: "waitforall"})
			if err != nil {
				return err
			}
			a.timing.newStream += msSince(t1)
			a.streams = append(a.streams, st)
		}
	} else {
		spec := core.StreamSpec{Transformation: "sum", Synchronization: "waitforall"}
		if a.w.kind == passthruSat {
			spec = core.StreamSpec{Synchronization: "nullsync"}
		}
		t1 := nowNs()
		st, err := nw.NewStream(spec)
		if err != nil {
			return err
		}
		a.timing.newStream = msSince(t1)
		a.streams = append(a.streams, st)
	}

	t1 := nowNs()
	if err := a.firstResult(); err != nil {
		return err
	}
	a.timing.firstResult = msSince(t1)
	a.timing.total = msSince(t)
	return nil
}

func (a *attempt) tiersHook() func([]*transport.Endpoint) {
	if !a.traced() {
		return nil
	}
	a.tiers = newTierStats(a.tree, a.spans)
	return a.tiers.wrap
}

// firstResult starts the load and checks the first result of every stream.
func (a *attempt) firstResult() error {
	if a.w.kind == commandRounds {
		for c, st := range a.streams {
			v := a.in.command(c, 0)
			if err := st.Multicast(dataTag, "%d", v); err != nil {
				return err
			}
			p, err := st.RecvTimeout(a.o.watchdog)
			if err != nil {
				return fmt.Errorf("first reply of %s: %w", tenants[c].name, err)
			}
			if got, _ := p.Int(0); !checkReply(tenants[c].tform, a.nLeaf, v, got) {
				return fmt.Errorf("first reply of %s: got %d for command %d", tenants[c].name, got, v)
			}
		}
		a.nextCmd = 1
		return nil
	}
	st := a.streams[0]
	if a.w.kind == reducePaced {
		a.t0 = nowNs() + int64(pacedLead)
	}
	if err := st.Multicast(dataTag, "%d", a.t0); err != nil {
		return err
	}
	p, err := st.RecvTimeout(a.o.watchdog)
	if err != nil {
		return fmt.Errorf("first result: %w", err)
	}
	a.delivered.Add(1)
	if !a.checkStreamed(p, nowNs(), nil) {
		return fmt.Errorf("first result is wrong: %v", p.Values())
	}
	return nil
}

// teardown stops the load and shuts the overlay down, giving up after
// shutdownCap. It reports whether Shutdown hung.
func (a *attempt) teardown() (hung bool) {
	a.halt()
	a.closing.Store(true)
	if a.nw == nil {
		return false
	}
	t := nowNs()
	done := make(chan struct{})
	go func() {
		_ = a.nw.Shutdown() // back-end handlers here never return an error
		close(done)
	}()
	select {
	case <-done:
	case <-time.After(shutdownCap):
		hung = true
	}
	a.timing.shutdown = msSince(t)
	return hung
}

// ---- front-end side ------------------------------------------------------

// checkStreamed runs the oracle on one result of a streaming workload and,
// for a timed operation, appends its latency to lat. It reports whether
// the result was the expected one.
func (a *attempt) checkStreamed(p *packet.Packet, now int64, lat *[]latSample) bool {
	v, err := p.Int(0)
	if err != nil {
		a.rounds.failed++
		return false
	}
	if a.w.kind == passthruSat {
		leaf, seq := unpackPass(v)
		ok := a.seqs.observe(leaf, seq)
		if !ok {
			return false
		}
		// Length on every packet, content on the timed ones: comparing
		// 1 KiB 300 000 times a second would measure the checker.
		b, err := p.Bytes(1)
		if err != nil || len(b) != payloadBytes || (seq%passLatEvery == 0 && !bytes.Equal(b, a.in.payload[leaf])) {
			a.seqs.ok--
			a.seqs.failed++
			return false
		}
		if seq%passLatEvery == 0 && lat != nil {
			st := &a.stamps[leaf][seq/passLatEvery%stampSlots]
			if st.op.Load() == seq {
				*lat = append(*lat, latSample{now, now - st.t.Load()})
			}
			if a.traced() && seq%spanEveryStream == 0 {
				a.spans.add(roundSpanID(v), 0, "operation", 0, now, v)
			}
		}
		return true
	}
	r := a.rounds.observe(v)
	if r < 0 {
		return false
	}
	if lat == nil {
		return true
	}
	switch {
	case a.w.kind == reducePaced:
		*lat = append(*lat, latSample{now, now - (a.t0 + r/pacedBurst*int64(pacedPeriod))})
	case r%reduceLatEvery == 0:
		// The round left when its last contributor called Send. Leaves
		// far ahead have reused their slot; the last contributor is the
		// one least ahead, so its stamp is the one that survives.
		var last int64
		for li := range a.stamps {
			st := &a.stamps[li][r/reduceLatEvery%stampSlots]
			if t := st.t.Load(); st.op.Load() == r && t > last {
				last = t
			}
		}
		if last > 0 {
			*lat = append(*lat, latSample{now, now - last})
		}
	}
	if a.traced() && r%spanEveryStream == 0 {
		a.spans.add(roundSpanID(r), 0, "operation", 0, now, r)
	}
	return true
}

// consume is the front-end client of a streaming workload: it receives
// and checks every result until the stream closes.
func (a *attempt) consume(st *core.Stream) clientResult {
	var lat []latSample
	for {
		var t int64
		if a.traced() {
			t = nowNs()
		}
		p, err := st.Recv()
		if err != nil {
			break
		}
		if a.closing.Load() {
			// Shutdown flushes the synchronizers' partial rounds upward.
			continue
		}
		now := nowNs()
		if a.traced() {
			a.recvWaitNs.Add(now - t)
		}
		a.checkStreamed(p, now, &lat)
		if a.delivered.Add(1)%gateEvery == 0 {
			a.openGate()
		}
	}
	failed := a.rounds.failed + a.seqs.failed
	return clientResult{ok: a.rounds.ok + a.seqs.ok, failed: failed, wrong: failed, lat: lat}
}

// command is the closed-loop client of tenant c: Multicast, wait for the
// reduced reply, check it, next.
func (a *attempt) command(c int, st *core.Stream) clientResult {
	var res clientResult
	for i := a.nextCmd; !a.stop.Load(); i++ {
		v := a.in.command(c, i)
		t0 := nowNs()
		if err := st.Multicast(dataTag, "%d", v); err != nil {
			res.failed++
			a.clientWedged.Store(true)
			break
		}
		t1 := nowNs()
		a.mcastNs.Add(t1 - t0)
		a.mcasts.Add(1)
		p, err := st.RecvTimeout(a.o.watchdog)
		t2 := nowNs()
		if err != nil {
			if !a.stop.Load() {
				res.failed++
				a.clientWedged.Store(true)
			}
			break
		}
		a.recvWaitNs.Add(t2 - t1)
		if got, err := p.Int(0); err == nil && checkReply(tenants[c].tform, a.nLeaf, v, got) {
			res.ok++
		} else {
			res.failed++
			res.wrong++
		}
		res.lat = append(res.lat, latSample{t2, t2 - t0})
		if a.traced() && v%spanEveryRounds == 0 {
			a.spans.add(roundSpanID(v), 0, "operation", t0, t2, v)
			a.spans.add(0, roundSpanID(v), "core.multicast", t0, t1, v)
			a.spans.add(0, roundSpanID(v), "core.recv", t1, t2, v)
		}
		a.delivered.Add(1)
	}
	return res
}

// ---- measuring -----------------------------------------------------------

// sample is the state at one window boundary.
type sample struct {
	tNs, ops, cpuNs, mallocs               int64
	recvWaitNs, sendNs, sends, sendBlocked int64
}

func (a *attempt) snap() sample {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	s := sample{tNs: nowNs(), ops: a.delivered.Load(), cpuNs: cpuNs(), mallocs: int64(ms.Mallocs), recvWaitNs: a.recvWaitNs.Load()}
	for i := range a.leaf {
		s.sends += a.leaf[i].sent.Load()
		s.sendNs += a.leaf[i].sendNs.Load()
		s.sendBlocked += a.leaf[i].sendBlocked.Load()
	}
	return s
}

// gauges is every cumulative counter the per-layer metrics take a delta
// of over the measured windows (C).
type gauges struct {
	counters map[string]int64
	up, down []tierTotals // traced pass only
	gcCycles uint32
	gcCPUSec float64
	cpuNs    int64
}

func (a *attempt) gauges() gauges {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	g := gauges{counters: a.nw.Metrics().Snapshot(), gcCycles: ms.NumGC, gcCPUSec: gcCPUSeconds(), cpuNs: cpuNs()}
	if a.traced() {
		g.up, g.down = a.tiers.snapshot()
	}
	return g
}

// setDeltas records what changed between two gauge readings; high-water
// marks are taken as they stand.
func (res *attemptResult) setDeltas(before, after gauges) {
	res.counters = map[string]int64{}
	for k, v := range after.counters {
		res.counters[k] = v - before.counters[k]
	}
	for _, k := range []string{"shard_queue_high_water", "egress_high_water", "replay_ring_high_water"} {
		res.counters[k] = after.counters[k]
	}
	for d := range after.up {
		res.tiersUp = append(res.tiersUp, after.up[d].sub(before.up[d]))
	}
	for d := range after.down {
		res.tiersDown = append(res.tiersDown, after.down[d].sub(before.down[d]))
	}
	res.gcCycles = int64(after.gcCycles - before.gcCycles)
	res.gcCPUSec = after.gcCPUSec - before.gcCPUSec
	res.cpuSec = float64(after.cpuNs-before.cpuNs) / 1e9
	res.goroutines = runtime.NumGoroutine()
}

// watch sleeps through the warm-up and n measured windows, taking a
// sample at every boundary. It returns early, with wedged set, when the
// front-end stops receiving for the watchdog period.
func (a *attempt) watch(n int, atStart func()) (samples []sample, wedged bool) {
	const tick = 20 * time.Millisecond
	start := nowNs()
	lastOps, lastChange := a.delivered.Load(), start
	for b := 1; b <= n+1; {
		due := start + int64(a.o.warmup) + int64(b-1)*int64(a.o.window)
		if d := time.Duration(due - nowNs()); d > tick {
			time.Sleep(tick)
		} else if d > 0 {
			time.Sleep(d)
		}
		now := nowNs()
		if ops := a.delivered.Load(); ops != lastOps {
			lastOps, lastChange = ops, now
		} else if now-lastChange > int64(a.o.watchdog) {
			return samples, true
		}
		if a.clientWedged.Load() {
			return samples, true
		}
		if now >= due {
			if b == 1 {
				atStart()
			}
			samples = append(samples, a.snap())
			b++
		}
	}
	return samples, false
}

// drain lets the overlay deliver what the leaves had sent when they were
// told to stop, so that loss shows: a reduction must deliver as many
// rounds as its slowest leaf sent, a pass-through stream every packet.
func (a *attempt) drain() bool {
	last, lastChange := a.delivered.Load(), nowNs()
	for {
		done := true
		for i := range a.leaf {
			done = done && a.leaf[i].done.Load()
		}
		if done && a.delivered.Load() >= a.expected() {
			return true
		}
		time.Sleep(2 * time.Millisecond)
		if d := a.delivered.Load(); d != last {
			last, lastChange = d, nowNs()
		} else if nowNs()-lastChange > int64(a.o.watchdog) {
			return false
		}
	}
}

// expected is how many results the leaves' sends call for: every packet
// of a pass-through stream, and of a reduction as many rounds as its
// slowest leaf sent.
func (a *attempt) expected() int64 {
	var sum int64
	lo := int64(-1)
	for i := range a.leaf {
		s := a.leaf[i].sent.Load()
		sum += s
		if lo < 0 || s < lo {
			lo = s
		}
	}
	if a.w.kind == passthruSat {
		return sum
	}
	return lo
}

// run builds the overlay, measures n windows and tears it down.
func (a *attempt) run(n int) (res attemptResult) {
	defer func() {
		res.timing = a.timing
		res.spans = a.spans.finish()
	}()
	if err := a.build(); err != nil {
		fmt.Fprintf(os.Stderr, "bench: %s: set-up failed: %v\n", a.w.name, err)
		res.failed++
		res.wedged = true
		a.dumpWedge("setup")
		res.hungShutdown = a.teardown()
		return res
	}

	results := make(chan clientResult, len(a.streams))
	for c, st := range a.streams {
		go func() {
			if a.w.streaming() {
				results <- a.consume(st)
			} else {
				results <- a.command(c, st)
			}
		}()
	}

	var before gauges
	samples, wedged := a.watch(n, func() {
		if a.traced() {
			res.heapStartMB = liveHeapMB()
		}
		before = a.gauges()
	})
	if len(samples) > 1 {
		res.setDeltas(before, a.gauges())
		res.liveHeapMB = liveHeapMB()
	}

	a.halt()
	if !wedged && a.w.streaming() {
		wedged = !a.drain()
	}
	if wedged {
		a.dumpWedge("wedge")
	}
	res.wedged = wedged
	res.hungShutdown = a.teardown()

	// Streams are closed now, so every client returns; one that does not
	// is stuck inside the overlay and is left behind.
	var lat []latSample
	for range a.streams {
		select {
		case r := <-results:
			res.ok += r.ok
			res.failed += r.failed
			res.wrong += r.wrong
			lat = append(lat, r.lat...)
		case <-time.After(shutdownCap):
			fmt.Fprintf(os.Stderr, "bench: %s: a front-end client is stuck in the overlay\n", a.w.name)
			res.failed++
			res.wedged = true
		}
	}
	if n := a.sendErrs.Load(); n > 0 {
		fmt.Fprintf(os.Stderr, "bench: %s: %d back-end Send calls failed\n", a.w.name, n)
		res.failed += n
	}
	if res.hungShutdown {
		fmt.Fprintf(os.Stderr, "bench: %s: Shutdown did not return within %v\n", a.w.name, shutdownCap)
		res.failed++
	}
	if wedged && a.w.streaming() {
		// Results whose every input the overlay had accepted and the
		// front-end never saw.
		lost := a.expected() - a.delivered.Load()
		if lost < 1 {
			lost = 1
		}
		res.failed += lost
	}

	bounds := make([]int64, len(samples))
	for i, s := range samples {
		bounds[i] = s.tNs
	}
	perWin := splitWindows(lat, bounds)
	for i := 1; i < len(samples); i++ {
		s0, s1 := samples[i-1], samples[i]
		w := window{
			secs: float64(s1.tNs-s0.tNs) / 1e9, ops: s1.ops - s0.ops,
			cpuNs: s1.cpuNs - s0.cpuNs, mallocs: s1.mallocs - s0.mallocs,
			recvWaitNs: s1.recvWaitNs - s0.recvWaitNs, sendNs: s1.sendNs - s0.sendNs,
			sends: s1.sends - s0.sends, sendBlocked: s1.sendBlocked - s0.sendBlocked,
		}
		in := perWin[i-1]
		w.latN = len(in)
		w.latP50, w.latP95, w.latP99, w.latP999 = percentile(in, 0.5), percentile(in, 0.95), percentile(in, 0.99), percentile(in, 0.999)
		res.windows = append(res.windows, w)
		res.leafPkts += w.ops * a.w.leafPktsPerOp(a.nLeaf)
	}
	for i := range a.leaf {
		if a.leaf[i].done.Load() {
			res.late = append(res.late, a.leaf[i].late...)
		}
	}
	res.mcastNs, res.mcasts = a.mcastNs.Load(), a.mcasts.Load()
	return res
}

// dumpWedge writes the overlay's counters for a wedged attempt.
func (a *attempt) dumpWedge(what string) {
	if a.nw == nil || a.o.outDir == "" {
		return
	}
	sent := make([]int64, len(a.leaf))
	for i := range a.leaf {
		sent[i] = a.leaf[i].sent.Load()
	}
	dump := map[string]any{
		"workload": a.w.name, "attempt": a.idx, "what": what, "traced": a.traced(),
		"delivered": a.delivered.Load(), "leaf_sent": sent,
		"metrics": a.nw.Metrics().Snapshot(),
	}
	name := fmt.Sprintf("%s-%s-attempt%d.json", what, a.w.name, a.idx)
	if err := writeJSON(filepath.Join(a.o.outDir, name), dump); err != nil {
		fmt.Fprintf(os.Stderr, "bench: %v\n", err)
	}
}

func writeJSON(path string, v any) error {
	b, err := json.MarshalIndent(v, "", " ")
	if err != nil {
		return err
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}
