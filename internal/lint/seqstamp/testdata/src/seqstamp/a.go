// Fixture for the seqstamp analyzer: fresh upward data packets must carry
// an origin sequence stamp before egress enqueue.
package seqstamp

type Packet struct{ Seq uint64 }

func (p *Packet) WithSeq(s uint64) *Packet { return p }

func MakeSeq(rank int, ctr uint64) uint64 { return 0 }

type Emitter interface{ Emit(p *Packet) }

type filter struct{}

func (f *filter) Apply(in []*Packet, out Emitter) error {
	for _, p := range in {
		out.Emit(p)
	}
	return nil
}

// outputs collects a filter's outputs.
type outputs []*Packet

func (o *outputs) Emit(p *Packet) { *o = append(*o, p) }

type egress struct{}

func (e *egress) sendCtx(p *Packet, block bool) error { return nil }
func (e *egress) sendAck(p *Packet) error             { return nil }
func (e *egress) send(p *Packet) error                { return nil }

type link struct{}

func (l *link) Send(p *Packet) error { return nil }

type node struct {
	parentOut *egress
	childOut  []*egress
	tf        *filter
	rank      int
	ctr       uint64
}

// flushBad transforms and forwards upward without stamping: after a
// recovery the replayed copies are indistinguishable from fresh packets
// and get delivered twice.
func (n *node) flushBad(batch []*Packet) {
	var out outputs
	_ = n.tf.Apply(batch, &out)
	for _, p := range out {
		_ = n.parentOut.sendCtx(p, true) // want `transforms packets and emits them upward without a Seq stamp`
	}
}

// flushGood stamps fresh outputs and preserves non-zero origin stamps.
func (n *node) flushGood(batch []*Packet) {
	var out outputs
	_ = n.tf.Apply(batch, &out)
	for _, p := range out {
		if p.Seq == 0 {
			n.ctr++
			p = p.WithSeq(MakeSeq(n.rank, n.ctr))
		}
		_ = n.parentOut.sendCtx(p, true)
	}
}

// badSink is a node's sink that sends what a filter emits straight up,
// unstamped.
type badSink struct{ n *node }

func (s *badSink) Emit(p *Packet) {
	_ = s.n.parentOut.sendAck(p) // want `transforms packets and emits them upward without a Seq stamp`
}

// goodSink stamps each fresh output in place before sending it up.
type goodSink struct{ n *node }

func (s *goodSink) Emit(p *Packet) {
	if p.Seq == 0 {
		s.n.ctr++
		p.Seq = MakeSeq(s.n.rank, s.n.ctr)
	}
	_ = s.n.parentOut.sendCtx(p, true)
}

// forward is an identity relay: no Apply, the origin Seq rides along.
func (n *node) forward(p *Packet) {
	_ = n.parentOut.sendCtx(p, true)
}

// fanDown transforms for the downstream direction: downstream traffic has
// no replay ring, so no stamp is required.
func (n *node) fanDown(batch []*Packet) {
	var out outputs
	_ = n.tf.Apply(batch, &out)
	for _, p := range out {
		for _, q := range n.childOut {
			_ = q.send(p)
		}
	}
}

type BackEnd struct {
	rank int
	ctr  uint64
	out  *link
	eg   *egress
}

func (be *BackEnd) parentLink() *link { return be.out }

// SendPacket is the stamping chokepoint: every packet leaves with a Seq.
func (be *BackEnd) SendPacket(p *Packet) error {
	if p.Seq == 0 {
		be.ctr++
		p = p.WithSeq(MakeSeq(be.rank, be.ctr))
	}
	return be.eg.send(p)
}

// Emit delegates to the chokepoint: fine.
func (be *BackEnd) Emit(p *Packet) error { return be.SendPacket(p) }

// FlushRaw bypasses the chokepoint without stamping.
func (be *BackEnd) FlushRaw(p *Packet) error {
	return be.parentLink().Send(p) // want `BackEnd.FlushRaw emits upward without stamping`
}
