package main

import (
	"fmt"
	"io"

	"repro/internal/core"
)

// ledgerRow is one rung of the cost ledger: what the layer costs alone,
// how often it runs per back-end packet, and the product.
type ledgerRow struct {
	Rung    string  `json:"rung"`
	Source  string  `json:"source"`
	NsEach  float64 `json:"ns_each"`
	PerPkt  float64 `json:"per_pkt"`
	NsTotal float64 `json:"ns_total"`
}

// ledger accounts for cpu_ns_per_pkt of a saturated workload with the
// ladder's rungs, in path order. crossings is the measured number of
// upstream link crossings per back-end packet (1 + 1/8 for a reduction on
// kary:8^2: the leaf's packet and an eighth of the interior's sum; 2 for a
// pass-through). Every packet that crosses a link is encoded, framed,
// written, read, synchronized and acknowledged once, so crossings is the
// frequency of those rungs. What the rungs do not explain — the egress
// queue, shard dispatch and goroutine hand-offs, which have no public
// entry point to time alone — is the remainder, and it is printed.
func ledger(w *workload, nLeaf int, m map[string]float64, crossings, cpuNsPerPkt float64) (rows []ledgerRow, explained, unexplained float64) {
	add := func(rung, source string, each, per float64) {
		if each < 0 {
			each = 0
		}
		rows = append(rows, ledgerRow{rung, source, each, per, each * per})
		explained += each * per
	}
	tcp := w.fabric == core.TCPTransport
	news := 1.0 // a pass-through packet is built once, at its leaf
	if w.kind != passthruSat {
		news = crossings + 1/float64(nLeaf) // every hop's sum is a new packet, and the root's
	}
	add("new", "packet.new_ns", m["packet.new_ns"], news)
	if tcp {
		add("encode", "packet.encode_ns", m["packet.encode_ns"], crossings)
		add("frame", "packet.frame_append_ns", m["packet.frame_append_ns"], crossings)
		add("link write", "transport.tcp_send_ns - packet.frame_append_ns", m["transport.tcp_send_ns"]-m["packet.frame_append_ns"], crossings)
		add("read/decode", "transport.tcp_recv_ns", m["transport.tcp_recv_ns"], crossings)
	} else {
		add("encode", "(chan links move pointers)", 0, 0)
		add("frame", "(chan links move pointers)", 0, 0)
		add("link write", "transport.chan_send_ns", m["transport.chan_send_ns"], crossings)
		add("read/decode", "(chan links move pointers)", 0, 0)
	}
	if w.kind == passthruSat {
		add("synchronize", "filter.nullsync_ns", m["filter.nullsync_ns"], crossings)
		add("transform", "(identity)", 0, crossings)
	} else {
		add("synchronize", "filter.waitforall_ns", m["filter.waitforall_ns"], crossings)
		add("transform", "filter.sum_ns", m["filter.sum_ns"], crossings)
	}
	add("egress", "(core-internal: not laddered)", 0, crossings)
	add("credit/ack", "transport.flow_credit_ns", m["transport.flow_credit_ns"], crossings)
	// Not a rung of the path but of the same bill: the collector's share of
	// the process's CPU time, measured over the traced windows.
	add("collector", "runtime.gc_cpu_share x cpu_ns_per_pkt", m["runtime.gc_cpu_share"]*cpuNsPerPkt, 1)
	return rows, explained, cpuNsPerPkt - explained
}

func printLedger(out io.Writer, rows []ledgerRow, cpuNsPerPkt, explained, unexplained float64) {
	fmt.Fprintf(out, "  ledger (ns per back-end packet)\n")
	for _, r := range rows {
		fmt.Fprintf(out, "    %-12s %9.1f ns x %5.3f = %9.1f   %s\n", r.Rung, r.NsEach, r.PerPkt, r.NsTotal, r.Source)
	}
	fmt.Fprintf(out, "    %-12s %31.1f\n", "explained", explained)
	fmt.Fprintf(out, "    %-12s %31.1f   cpu_ns_per_pkt %.1f - explained\n", "unexplained", unexplained, cpuNsPerPkt)
}
