// Package sketch is a library of mergeable-sketch filters — count-min
// frequency, HyperLogLog distinct-count, and t-digest quantiles — packaged
// as ordinary TBON merge filters. Sketches are the TBON-natural workload:
// each back-end summarizes its local stream into a fixed-size synopsis, and
// because the synopses merge associatively, every communication process
// combines its children's sketches into one, so the front-end receives a
// whole-system summary at per-level cost independent of the leaf count —
// the same amortization argument the paper makes for its filter model.
//
// The package also ships a tiny request/response protocol so tools (the
// query engine's sketch sessions, examples/multitenant) can drive sketch
// workloads over any stream: a request packet names the sketch kind and a
// deterministic synthetic workload (items per back-end, seed); back-ends
// answer with their local sketch, and the stream's merge filter reduces the
// answers level by level. Determinism is the point — tests recompute the
// exact ground truth from the same generator and check the sketch against
// it.
package sketch

import (
	"fmt"
	"hash/fnv"
	"math/rand"

	"repro/internal/core"
	"repro/internal/filter"
	"repro/internal/packet"
)

// Kind names a sketch family.
type Kind string

const (
	KindCountMin Kind = "cm"
	KindHLL      Kind = "hll"
	KindTDigest  Kind = "tdigest"
)

// Filter registry names, one merge filter per sketch kind.
const (
	FilterCountMin = "sketch-cm"
	FilterHLL      = "sketch-hll"
	FilterTDigest  = "sketch-tdigest"
)

// Tag is the application packet tag sketch requests and responses travel
// under.
const Tag = packet.TagFirstApplication + 18

// RequestFormat is the payload layout of a sketch request: kind, sketch
// parameter (count-min width / HLL precision / t-digest compression),
// items per back-end, generator seed.
const RequestFormat = "%s %d %d %d"

// Request describes one sketch workload.
type Request struct {
	Kind Kind
	// Param is the sketch's size knob: count-min row width, HyperLogLog
	// precision (register-index bits), or t-digest compression. 0 selects
	// a kind-specific default.
	Param int
	// N is how many synthetic items each back-end feeds its local sketch.
	N int
	// Seed roots the deterministic per-rank workload generator.
	Seed int64
}

// FilterName returns the registry name of the kind's merge filter.
func FilterName(k Kind) (string, error) {
	switch k {
	case KindCountMin:
		return FilterCountMin, nil
	case KindHLL:
		return FilterHLL, nil
	case KindTDigest:
		return FilterTDigest, nil
	}
	return "", fmt.Errorf("sketch: unknown kind %q", k)
}

// normalized fills kind-specific defaults in.
func (r Request) normalized() Request {
	if r.Param <= 0 {
		switch r.Kind {
		case KindCountMin:
			r.Param = 1024
		case KindHLL:
			r.Param = 12
		case KindTDigest:
			r.Param = 100
		}
	}
	return r
}

// ToPacket encodes the request for multicast on a stream.
func (r Request) ToPacket(streamID uint32) (*packet.Packet, error) {
	return packet.New(Tag, streamID, 0, RequestFormat,
		string(r.Kind), int64(r.Param), int64(r.N), r.Seed)
}

// IsRequest reports whether p is a sketch request.
func IsRequest(p *packet.Packet) bool {
	return p.Tag == Tag && p.Format() == RequestFormat
}

// ParseRequest decodes a sketch request packet.
func ParseRequest(p *packet.Packet) (Request, error) {
	if !IsRequest(p) {
		return Request{}, fmt.Errorf("sketch: not a request packet (tag %d format %q)", p.Tag, p.Format())
	}
	kind, err := p.Str(0)
	if err != nil {
		return Request{}, err
	}
	param, err := p.Int(1)
	if err != nil {
		return Request{}, err
	}
	n, err := p.Int(2)
	if err != nil {
		return Request{}, err
	}
	seed, err := p.Int(3)
	if err != nil {
		return Request{}, err
	}
	r := Request{Kind: Kind(kind), Param: int(param), N: int(n), Seed: seed}
	if _, err := FilterName(r.Kind); err != nil {
		return Request{}, err
	}
	return r.normalized(), nil
}

// HandleRequest is the back-end half of the protocol: build the rank's
// local sketch over its deterministic synthetic stream and send it upstream
// on the request's stream, where the kind's merge filter reduces it.
func HandleRequest(be *core.BackEnd, p *packet.Packet) error {
	req, err := ParseRequest(p)
	if err != nil {
		return err
	}
	out, err := BuildLocal(req, be.Rank(), p.StreamID)
	if err != nil {
		return err
	}
	return be.SendPacket(out)
}

// BuildLocal computes one rank's local sketch packet for the request.
func BuildLocal(req Request, rank core.Rank, streamID uint32) (*packet.Packet, error) {
	req = req.normalized()
	switch req.Kind {
	case KindCountMin:
		cm := NewCountMin(defaultCMDepth, req.Param)
		GenStream(req.Seed, rank, req.N, func(key string, _ float64) {
			cm.Add(key, 1)
		})
		return cm.ToPacket(Tag, streamID, rank)
	case KindHLL:
		h, err := NewHLL(req.Param)
		if err != nil {
			return nil, err
		}
		GenStream(req.Seed, rank, req.N, func(key string, _ float64) {
			h.Add(key)
		})
		return h.ToPacket(Tag, streamID, rank)
	case KindTDigest:
		td := NewTDigest(float64(req.Param))
		GenStream(req.Seed, rank, req.N, func(_ string, v float64) {
			td.Add(v, 1)
		})
		return td.ToPacket(Tag, streamID, rank)
	}
	return nil, fmt.Errorf("sketch: unknown kind %q", req.Kind)
}

// GenStream drives emit with rank's deterministic synthetic workload: a
// Zipf-skewed key (frequency/distinct workloads) and a normal value
// (quantile workloads) per item. Back-ends and tests run the identical
// generator, which is what lets tests check a reduced sketch against the
// exact ground truth.
func GenStream(seed int64, rank core.Rank, n int, emit func(key string, val float64)) {
	r := rand.New(rand.NewSource(seed ^ int64(uint64(rank)*0x9E3779B97F4A7C15)))
	z := rand.NewZipf(r, 1.2, 1, 4095)
	for i := 0; i < n; i++ {
		key := fmt.Sprintf("k%d", z.Uint64())
		val := r.NormFloat64()*15 + 100
		emit(key, val)
	}
}

// hash64 is the shared 64-bit key hash: FNV-1a finished with a splitmix64
// mix. The finalizer matters — FNV-1a's high bits are weakly mixed for
// short keys, and HLL routes on exactly those bits.
func hash64(key string) uint64 {
	h := fnv.New64a()
	_, _ = h.Write([]byte(key))
	x := h.Sum64()
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return x
}

// Register installs the three sketch merge filters. Each is a stateless
// within-batch merger, like the query engine's partial-aggregate filter:
// a synchronizer batch of child sketches reduces to a single sketch packet.
func Register(reg *filter.Registry) {
	reg.RegisterTransformation(FilterCountMin, func() filter.Transformation {
		return mergeFilter{decodeMerge: mergeCountMin}
	})
	reg.RegisterTransformation(FilterHLL, func() filter.Transformation {
		return mergeFilter{decodeMerge: mergeHLL}
	})
	reg.RegisterTransformation(FilterTDigest, func() filter.Transformation {
		return mergeFilter{decodeMerge: mergeTDigest}
	})
}

// mergeFilter reduces a round of same-kind sketch packets to one.
type mergeFilter struct {
	decodeMerge func(in []*packet.Packet) (*packet.Packet, error)
}

func (f mergeFilter) Apply(in []*packet.Packet, out filter.Emitter) error {
	if len(in) == 0 {
		return nil
	}
	p, err := f.decodeMerge(in)
	if err != nil {
		return err
	}
	out.Emit(p)
	return nil
}

func mergeCountMin(in []*packet.Packet) (*packet.Packet, error) {
	acc, err := CountMinFromPacket(in[0])
	if err != nil {
		return nil, err
	}
	for _, p := range in[1:] {
		cm, err := CountMinFromPacket(p)
		if err != nil {
			return nil, err
		}
		if err := acc.Merge(cm); err != nil {
			return nil, err
		}
	}
	return acc.ToPacket(in[0].Tag, in[0].StreamID, packet.UnknownRank)
}

func mergeHLL(in []*packet.Packet) (*packet.Packet, error) {
	acc, err := HLLFromPacket(in[0])
	if err != nil {
		return nil, err
	}
	for _, p := range in[1:] {
		h, err := HLLFromPacket(p)
		if err != nil {
			return nil, err
		}
		if err := acc.Merge(h); err != nil {
			return nil, err
		}
	}
	return acc.ToPacket(in[0].Tag, in[0].StreamID, packet.UnknownRank)
}

func mergeTDigest(in []*packet.Packet) (*packet.Packet, error) {
	acc, err := TDigestFromPacket(in[0])
	if err != nil {
		return nil, err
	}
	for _, p := range in[1:] {
		td, err := TDigestFromPacket(p)
		if err != nil {
			return nil, err
		}
		acc.Merge(td)
	}
	return acc.ToPacket(in[0].Tag, in[0].StreamID, packet.UnknownRank)
}
