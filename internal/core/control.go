package core

import (
	"fmt"

	"repro/internal/packet"
)

// Control operation codes carried in TagControl packets. The op is always
// the first payload value.
const (
	opNewStream    int64 = 1 // establish stream state at every node on the path
	opCloseStream  int64 = 2 // tear down stream state, draining synchronizers
	opShutdown     int64 = 3 // stop the subtree
	opHeartbeat    int64 = 4 // liveness beacon, one hop up: the parent notes it and drops it
	opCloseSession int64 = 6 // tear down every stream of a namespace, non-quiescing
)

// Control packet formats, one per op.
const (
	// op, streamID, transformation name, synchronization name, member ranks
	ctrlNewStreamFormat = "%d %d %s %s %ad"
	// op, streamID
	ctrlCloseStreamFormat = "%d %d"
	// op
	ctrlShutdownFormat = "%d"
	// op, origin rank
	ctrlHeartbeatFormat = "%d %d"
	// op, namespace
	ctrlCloseSessionFormat = "%d %d"
)

// newStreamPacket encodes an opNewStream control message.
func newStreamPacket(id uint32, tform, sync string, members []Rank) *packet.Packet {
	ms := make([]int64, len(members))
	for i, m := range members {
		ms[i] = int64(m)
	}
	return packet.MustNew(packet.TagControl, 0, 0, ctrlNewStreamFormat,
		opNewStream, int64(id), tform, sync, ms)
}

// closeStreamPacket encodes an opCloseStream control message.
func closeStreamPacket(id uint32) *packet.Packet {
	return packet.MustNew(packet.TagControl, 0, 0, ctrlCloseStreamFormat,
		opCloseStream, int64(id))
}

// heartbeatPacket encodes an opHeartbeat control message from origin.
func heartbeatPacket(origin Rank) *packet.Packet {
	return packet.MustNew(packet.TagControl, 0, origin, ctrlHeartbeatFormat,
		opHeartbeat, int64(origin))
}

// parseHeartbeat decodes an opHeartbeat control message, reporting false
// for any other packet.
func parseHeartbeat(p *packet.Packet) (Rank, bool) {
	if op, err := ctrlOp(p); err != nil || op != opHeartbeat {
		return 0, false
	}
	origin, err := p.Int(1)
	return Rank(origin), err == nil
}

// ctrlOp extracts the operation code from a control packet.
func ctrlOp(p *packet.Packet) (int64, error) {
	if p.NumValues() == 0 {
		return 0, fmt.Errorf("core: empty control packet")
	}
	return p.Int(0)
}

// parseNewStream decodes an opNewStream control message.
func parseNewStream(p *packet.Packet) (id uint32, tform, sync string, members []Rank, err error) {
	rawID, err := p.Int(1)
	if err != nil {
		return 0, "", "", nil, err
	}
	tform, err = p.Str(2)
	if err != nil {
		return 0, "", "", nil, err
	}
	sync, err = p.Str(3)
	if err != nil {
		return 0, "", "", nil, err
	}
	ms, err := p.IntArray(4)
	if err != nil {
		return 0, "", "", nil, err
	}
	members = make([]Rank, len(ms))
	for i, m := range ms {
		members[i] = Rank(m)
	}
	return uint32(rawID), tform, sync, members, nil
}

// parseCloseStream decodes an opCloseStream control message.
func parseCloseStream(p *packet.Packet) (uint32, error) {
	rawID, err := p.Int(1)
	if err != nil {
		return 0, err
	}
	return uint32(rawID), nil
}

// closeSessionPacket encodes an opCloseSession control message.
func closeSessionPacket(ns uint32) *packet.Packet {
	return packet.MustNew(packet.TagControl, 0, 0, ctrlCloseSessionFormat,
		opCloseSession, int64(ns))
}

// parseCloseSession decodes an opCloseSession control message.
func parseCloseSession(p *packet.Packet) (uint32, error) {
	rawNS, err := p.Int(1)
	if err != nil {
		return 0, err
	}
	return uint32(rawNS), nil
}
