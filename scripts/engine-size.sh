#!/usr/bin/env bash
# engine-size.sh — print the engine's size and fail above checked-in ceilings.
#
# Four numbers ROADMAP counts as debt: the non-test lines of internal/core
# (item 4's exit bar), the places there that construct a timer (item 7), the
# //tbon:allow waivers in the repository's own code (item 4; the analyzers'
# testdata fixtures are not waivers), and the non-test Go lines outside
# the bench/ module (aim 2, reported every round). The ceilings are the
# values at the last PR that moved them; a PR that lowers a number lowers
# its ceiling, and one that raises it has to say why here.
#
# Raised: internal/core 6214 -> 6293 for the work-conserving egress (the
# retired ROADMAP item 2): each producer's idle point (egressQueue.idle and
# its call sites in the shard lanes, BackEnd.Recv and a blocked acquireSlot),
# the hand-off that keeps an idle flush from stranding behind a busy wire
# (unlockWire) and the flush_idle counter. Outside bench/ the total still
# fell, 21340 -> 21176: the elastic ablation runner went (it measured the
# age-flush floor), while TCP credit grants became allocation-free
# (packet.AppendGrantFrame / ParseGrantFrame, the TCP link's grant writer
# and read-edge absorber).
#
# Raised: internal/core 6293 -> 6300 and outside bench/ 21176 -> 21203 for
# one object per packet a node builds: packet.New's fused header-and-payload
# allocation (three size-class wrappers and alloc; +14 in internal/packet
# net of folding WithStream into WithStreamSrc and of Packet.WithSrc, whose
# only callers were tests, becoming a one-line helper in them), the
# in-place stamp of a node's own filter outputs (flushBatchesAck and the
# root's deliverUp, +7 in internal/core) and the filter.Transformation
# ownership contract that makes it safe (+6 in internal/filter).
#
# Lowered: internal/core 6300 -> 5915 and outside bench/ 21203 -> 20236 for
# deleting the two opt-in side channels nothing shipped with: adopter
# checkpoints (opCheckpoint, the adopters' checkpoint cache, CheckpointNow,
# recovery.Config.CheckpointPeriod) and the elastic controller with its
# load-report channel (internal/elastic, examples/elastic, opLoadReport,
# Config.LoadReportPeriod, the per-router upCount, PlaceBackEnd).
#
# Raised: internal/core 5915 -> 5935 and outside bench/ 20236 -> 20375 for
# counting credits instead of passing tokens. In internal/core the in-order
# retirement tracker records completed runs as ranges (+21 in replay.go,
# with the absorb step overlapping completions need) and the scheduler's
# take acquires a batch's credits in one step and refunds what it does not
# spend (+9); the egress occupancy count under the queue lock paid for
# itself (-10, the slot semaphore, its re-acquisition loop and the
# grantLandedLocked probe deleted). In internal/transport the shared
# counter (credits.go, +107) replaces both FlowLink's and Budget's token
# channels (-66). The creditpair analyzer learned the counted
# TryAcquireN shape (+50, and +28 of testdata fixture, which this count
# includes).
#
# Lowered: internal/core 5935 -> 5921 and outside bench/ 20375 -> 20324 for
# one downstream path: the root's user sends go through its child egress
# queues like every router's, so frontend.go (sendToStream), the adoptSeq
# seqlock and the root's no-queue branches in run and installChild went,
# and in internal/transport FlowLink.AcquireBudgeted and RefundBudgeted
# shrank to one StampBudget. What it added is the root's send helpers
# (rootSend, rootSendBudgeted, floodNow, idleChildren) and the node
# constructor that builds every router's queues before its loop starts.
#
# Raised: internal/core 5921 -> 6082 and outside bench/ 20324 -> 20601 for
# one write per hop. In internal/core the queue's one clock gained a grant
# deadline beside the data deadline (grantDue, retimeLocked, owe, payOwed)
# and the flush body pollAge shares with the on-caller idle flush
# (flushDue, idleNow) that BackEnd.Recv and the root's sends now run; the
# acker retires and owes on the completing goroutine. In internal/transport
# FlowLink keeps the owed credits (Owe, OweIdle, PayOwed, the hooks) and
# the TCP link writes an owed grant ahead of each data frame. The timer
# sites stay at 6: the grant backstop is the existing clock.
#
# Lowered: internal/core 6082 -> 6053 and outside bench/ 20601 -> 20571 for
# work-conserving senders: the enqueue that makes a queue non-empty arms
# its clock at zero, so BackEnd.Flush, node.idleChildren,
# egressQueue.idleLocked and the producers' idle() calls (the shard lanes,
# floodNow, redispatchStash, a producer blocking on a full queue) were
# deleted. The timer sites stay at 6.
#
# Lowered: internal/core 6053 -> 6051; raised: outside bench/ 20571 ->
# 20717 for allocating a received frame whole and keeping drained FIFOs'
# arrays (command_rounds_tcp allocs_per_pkt 16.6 -> 5.7). In
# internal/packet (+114) ReadFrame reads the length and count a byte at a
# time (FrameReader, readUint32) and sizes one allocation from them: a
# size-class wrapper puts a one-scalar one-packet frame's body, Packet and
# result slice in one object (allocFrame), frameHeaders fuses any other
# frame's Packets and pointers, and decodeInto decodes into a Packet it is
# handed (frameCount is shared by DecodeFrame and ReadFrame). In
# internal/filter (+32) WaitForAll's per-child queues became head-indexed
# slotQueues that keep a small array when drained; the three copies of
# its round-release loop folded into one. internal/core shrank: the lane's
# and the epoch list's inline arrays cost two fields, and pendRetire by
# value deleted the per-run record's nil case.
# Lowered: internal/core 6051 -> 6005 and outside bench/ 20717 -> 20671 for
# one pipeline per router: the stream-hash shard pool went (shardFor,
# shardPool.shards, Network.shardCount, the per-shard loops of quiesce and
# drainStop), shard and shardPool merged into one pipeline type with an up
# and a down lane, and Config.Shards is ignored. The acker became the
# queue's concrete hook, and a grant collects its deferred retirements
# into a caller-owned array.
#
# Lowered: internal/core 6005 -> 5919 and outside bench/ 20671 -> 20331
# for one-hop liveness: a beacon stops at its parent's link reader, so
# upstream carries data only. Deleted: the ingress control lane
# (ctrlLane, ctrlLaneDepth, orderFreeControl, splitOrderFree), the
# router's handleOrderFree and relay, the egress scheduler's order-free
# .ctrl lane, the front-end's lastHB map, and the ctrlfifo analyzer with
# its testdata, which guarded those lanes. Added: each router's beacon
# record (beacons) and the merge behind Network.Heartbeats. The timer
# sites stay at 6.
#
# Lowered: internal/core 5919 -> 5835, outside bench/ 20331 -> 20271 and
# timer sites 6 -> 5 for one clock per link: each egress queue's clock
# is the one place a rank does timed or reader-initiated wire work.
# Deleted: the acker (its goroutine, map, channels and halt; a completed
# acknowledgement owes its grant with FlowLink.OweNow and the child
# queue's clock pays it), heartbeatLoop with its NewTicker (an upstream
# queue keeps a beacon deadline and sends the beacon itself), spawn's
# link/stop plumbing, node.parentLink, the opOpenSession flood
# (openSessionPacket, parseOpenSession) and Config.Rewirer. Added: the
# beacon deadline (beacon, beat), the at-once owe, the clock's armedAt
# record that keeps a due deadline from pulling a set timer forward, and
# Network.upstreamQueue.
#
# Lowered: internal/core 5835 -> 5830; raised: outside bench/ 20271 ->
# 20343 for the emit filter contract (filters emit, the node owns). In
# internal/core flushBatchesAck, flushBatches, the stream's
# addBatch/poll/deadline wrappers and Stream.deliver went: each stream is
# its own sink (begin, round, Emit, end), and deliverUp takes one packet.
# internal/filter grew 28 lines net of BatchAdder, the AddBatch helper and
# singletons: the contract's types (Emitter, RoundFunc, Outputs, Collect),
# Chain as a struct that owns its stage buffers, and the three adapters
# bench/ladder.go still calls (WaitForAll and NullSync AddBatch,
# NumericReduce.Transform), which stay until the benchmark's next upkeep.
# Each of the nine other filter packages emits its one output (+1 line
# each), and seqstamp learned the sink (+4).
#
# Raised: internal/core 5830 -> 5876 and outside bench/ 20343 -> 20404 for
# per-rank counters, which take the data path off process-wide cache
# lines. In internal/core each router and back-end owns a padded Metrics
# set (Network.shard, the m fields) that its queues, pipeline and readers
# count into; Network.Metrics sums the sets on read and RankMetrics reads
# one; RejectSession counts an admission refusal now that Metrics returns
# a snapshot. Snapshot and the sum are one loop over the fields' snap tags
# (Snapshot went 42 -> 12 lines), so the rise is the new read surface and
# the shard bookkeeping. In internal/packet (+15) the encode counter sits
# on padded lines of its own and counts only once something has read it.
# The rise does not rest on a throughput gain: reduce_sat_chan pkts_per_s
# led in 16 of 20 interleaved pairs, too few to claim one. It buys the
# per-rank ownership TestDataPathCountsPerRank pins and RankMetrics.
#
# Lowered: internal/core 5876 -> 5708 and outside bench/ 20404 -> 19847
# for deleting what no shipped path ran. In internal/core: SplitNode,
# MergeNode, ErrNotMutable and their three Metrics counters (mutate.go;
# its live-shape accessors moved to view.go), attach's internal-router
# branch (the stream pre-announce loop and the backend parameter of
# attach and liveView.add) and reparent's live-donor branches (the
# unmove of a failed hand-off, the donor's and the sibling's installs):
# an adoption's dead parent is reparent's one shape. Outside it:
# internal/timealign and internal/topk, which had no importer, the
# chaos schedule's split and merge events, and the tenant-budget knob
# (SessionInfo.Budget, session.WithBudget); every session keeps the
# one-window budget. The timer sites stay at 5 and the waivers at 2.
#
# Lowered: internal/core 5708 -> 5707 and outside bench/ 19847 -> 19814
# for a packet that is a plain value: packet.Packet lost its cache of
# decoded values (the values, mu and loaded fields and load), so Values
# decodes per call and restamp is a struct copy; Config.ChanBuf went, and
# with it the buffer parameter of transport.NewChanFabric and
# NewChanRewirer; BackEnd.seqCtr is a plain counter of the handler
# goroutine's. The timer sites stay at 5 and the waivers at 2.
#
# Lowered: internal/core 5707 -> 5537 and outside bench/ 19814 -> 19603
# for one egress order: every link's queue is a FIFO of packets (a head
# offset and a data count), so egressSched lost its priority classes,
# round-robin, control-sealed epochs (schedEpoch, schedStream, pick,
# open, recycle, the retained list, the inline epoch array) and both
# freelists, and the prio parameter left sendCtx, sendAck,
# enqueueLocked, newStreamState and the opNewStream format. Outside it
# StreamSpec.Priority, SessionInfo.Priority, session.WithWeight with its
# Option and settings, and Session.Priority went. take keeps its
# creditpair waiver; the timer sites stay at 5 and the waivers at 2.
#
# Lowered: internal/core 5537 -> 5473 and outside bench/ 19603 -> 19535
# for a down lane that carries packets, not filters: StreamSpec's
# downstream transformation went with its opNewStream field, the stream
# state that held it (the filter, its name, the reused input and output)
# and pipeDown; with one goroutine left to drive a stream's filters,
# streamState.pipeMu went with every lock pair around them, and the
# pipeCloseUp and pipePoll wrappers folded into the up lane. Outside it
# transport.FlowLink.Inner, which nothing called, went. A control
# enqueue no longer arms the queue's clock, and its flush hands a busy
# wire off to the owner (+11 in egress.go). The timer sites stay at 5
# and the waivers at 2.
#
# Lowered: internal/core 5473 -> 5305 and outside bench/ 19535 -> 19367
# for an upstream queue that is its own replay ring: its FIFO keeps what
# it takes until the peer's cumulative ack, so the separate ring
# (replayRing, ringEntry), noteSent and retireLocked with their three
# counters, the replaying and meta maps keyed by packet pointer, and
# egressSched.restore went; the maxRetained bound, which never bound,
# went with them. Recovery's absorbComposed and stateMerger, a silent
# merge no stateful filter reached, went too. take keeps its creditpair
# waiver; the timer sites stay at 5 and the waivers at 2.
#
# Raised: internal/core 5305 -> 5522 and outside bench/ 19367 -> 19728
# for lanes that flush their own queues. onAck's cum == 0 branch went
# first (-3); FlowLink.Refill stays, since the benchmark's ladder calls
# it. In internal/core (+217, about 85 of them doc comments) a lane's
# enqueue records its idle deadline without arming the clock (laneDue,
# clockDueLocked), the lanes flush at their idle point without waiting on
# the wire (laneIdle, idleDown), a batch the link would wait for passes
# with the wire to the clock (handOff, takenBatch, flushHandedOff), a
# producer about to block for a slot hands its deadlines to the clocks
# (clockDue, clockLaneDue) and flush_clock is counted apart. In
# internal/transport (+142) the optional non-blocking send: TryBatchSender
# and TrySender, the chan link's send with a default, the TCP link's
# TryLock and one non-blocking write through the socket's raw descriptor,
# and the owed-grant claim's settlement, which gives a grant back when the
# socket took none of its frame. The lockorder analyzer learned
# TrySendBatch (+2). The timer sites stay at 5 and the waivers at 2.
set -eu
cd "$(dirname "$0")/.."

max_lines=5522
max_timer_sites=5
max_waivers=2
max_repo_lines=19728

files=$(git ls-files 'internal/core/*.go' | grep -v _test.go)
# shellcheck disable=SC2086
lines=$(cat $files | wc -l)
# shellcheck disable=SC2046
repo_lines=$(cat $(git ls-files '*.go' | grep -v '^bench/' | grep -v _test.go) | wc -l)
# shellcheck disable=SC2086
timer_sites=$(grep -oE 'time\.NewTimer|time\.After\(|time\.NewTicker|time\.AfterFunc' $files | wc -l)
# A directive starts a comment on its own or after code; mentions inside
# prose comments or string literals have a '/' or '"' before them.
# shellcheck disable=SC2046
waivers=$(grep -E '^[^"/]*//tbon:allow [a-z]+ [^ ]' $(git ls-files '*.go' | grep -v '/testdata/') | wc -l)

echo "non-test internal/core: ${lines} lines (ceiling ${max_lines})"
echo "timer-construction sites: ${timer_sites} (ceiling ${max_timer_sites})"
echo "//tbon:allow waivers: ${waivers} (ceiling ${max_waivers})"
echo "non-test Go outside bench/: ${repo_lines} lines (ceiling ${max_repo_lines})"
status=0
[ "$lines" -le "$max_lines" ] || { echo "engine-size: internal/core grew past its ceiling" >&2; status=1; }
[ "$timer_sites" -le "$max_timer_sites" ] || { echo "engine-size: a new timer site in internal/core" >&2; status=1; }
[ "$waivers" -le "$max_waivers" ] || { echo "engine-size: a new //tbon:allow waiver" >&2; status=1; }
[ "$repo_lines" -le "$max_repo_lines" ] || { echo "engine-size: non-test Go outside bench/ grew past its ceiling" >&2; status=1; }
exit "$status"
