// Package filter implements the TBON's data filter abstraction: functions
// placed at every communication process that transform sets of in-flight
// packets into (usually) a single packet, optionally carrying persistent
// state between executions. Filters are the mechanism that turns a
// communication tree into a distributed computation engine.
//
// Two filter families exist, mirroring MRNet:
//
//   - Transformation filters aggregate or reduce packet payloads (sum, min,
//     max, average, concatenation, or arbitrary application logic).
//   - Synchronization filters decide *when* waiting packets are delivered to
//     the transformation filter: when every child has reported
//     (WaitForAll), after a timeout window (TimeOut), or immediately (Null).
//
// Neither family returns its results. A synchronizer calls the RoundFunc
// it is handed once per round it releases, and the round slice stays the
// synchronizer's: it may reuse it as soon as the call returns. A
// transformation calls Emit on the Emitter it is handed once per output,
// and an emitted packet is the receiver's. In the overlay both receivers
// are the node's sink, built once per stream, so a released round reaches
// the parent's queue without a result slice in between.
//
// Filters are instantiated per stream per node from a Registry, the Go
// equivalent of MRNet's dlopen-based on-demand filter loading: applications
// register constructors under a name, and any node can instantiate the
// filter by name at stream-creation time.
package filter

import (
	"errors"
	"fmt"
	"sort"
	"sync"
	"time"

	"repro/internal/packet"
)

// Emitter receives a transformation's outputs, one Emit call per packet.
//
// Emitting hands the packet over. An output with Seq == 0 is one the filter
// built; the overlay's sink stamps its stream, source and sequence in
// place, so a filter must not keep it or emit it again, in this call or a
// later one. An output with Seq != 0 is an input passed through, and the
// sink forwards it unchanged.
type Emitter interface {
	Emit(p *packet.Packet)
}

// Transformation reduces a round of packets (one round as released by the
// node's synchronization policy) into zero or more output packets. Filters
// may keep state across calls; each node instantiates its own filter per
// stream, so implementations need NOT be safe for concurrent use.
//
// Concurrency contract: every filter instance is single-writer. The
// engine drives a given stream's filters from one pipeline goroutine at a
// time, and quiesces that pipeline before the control plane touches the
// same instance (recovery snapshots, synchronizer rebuilds, shutdown
// drains). Implementations may therefore use plain fields freely — but
// must not share mutable state ACROSS instances, since different
// instances do run in parallel (on other routers, or on the other lane).
type Transformation interface {
	// Apply consumes a round of packets travelling in the same direction
	// on one stream and emits each packet to forward to out. Emitting
	// nothing suppresses forwarding entirely (used e.g. by
	// equivalence-class filters that only forward novel information). The
	// in slice belongs to the caller and is valid only during the call.
	// Outputs emitted before an error still go on.
	Apply(in []*packet.Packet, out Emitter) error
}

// TransformFunc adapts a function to the Transformation interface.
type TransformFunc func(in []*packet.Packet, out Emitter) error

// Apply calls f.
func (f TransformFunc) Apply(in []*packet.Packet, out Emitter) error { return f(in, out) }

// Outputs is an Emitter that appends every output to itself: Chain's
// stage buffers, and a caller that wants a transformation's results as a
// slice.
type Outputs []*packet.Packet

// Emit appends p.
func (o *Outputs) Emit(p *packet.Packet) { *o = append(*o, p) }

// Reset empties o, keeping its array for the next round.
func (o *Outputs) Reset() {
	clear(*o)
	*o = (*o)[:0]
}

// Collect runs t over in and returns its outputs in a fresh slice, nil
// when it emitted none. It is for callers outside the overlay (tests,
// offline models); a node emits into its own sink.
func Collect(t Transformation, in []*packet.Packet) ([]*packet.Packet, error) {
	var out Outputs
	err := t.Apply(in, &out)
	return out, err
}

// StatefulTransformation is implemented by transformations whose persistent
// filter state can be externalized. Adoption snapshots the orphans' states
// and composes them into the lost node's (the paper's "zero-cost
// reliability" state rule, internal/reliability), restoring what the lost
// node had acknowledged but still held.
type StatefulTransformation interface {
	Transformation
	// State returns an opaque, serializable snapshot of the filter state.
	State() ([]byte, error)
	// SetState restores a snapshot produced by State.
	SetState([]byte) error
}

// RoundFunc receives one round a synchronizer releases. The round slice is
// the synchronizer's and may be reused once the call returns: a receiver
// that keeps the packets copies them out.
type RoundFunc func(round []*packet.Packet)

// Synchronizer groups arriving packets into rounds for transformation.
// Implementations are per-node, per-stream and are driven by the stream's
// pipeline: Offer is called for every run of packets arriving from a child,
// and Poll releases whatever the policy is willing to release on a timer.
// The single-writer contract on Transformation applies identically here —
// one goroutine at a time, no locking required inside the filter.
type Synchronizer interface {
	// Offer hands the synchronizer a run of packets that arrived, in
	// order, on one child slot, and calls emit for each round the policy
	// releases as a result, oldest first.
	Offer(child int, run []*packet.Packet, emit RoundFunc)
	// Poll calls emit for each round released by the passage of time
	// (only the TimeOut policy ever releases here). now is the current
	// time.
	Poll(now time.Time, emit RoundFunc)
	// Pending reports how many packets are currently held back.
	Pending() int
	// Deadline returns the next time Poll could release a round, or the
	// zero time when no timer is needed.
	Deadline() time.Time
}

// ErrUnknownFilter reports a name not present in a Registry.
var ErrUnknownFilter = errors.New("filter: unknown filter")

// Registry maps filter names to constructors. It is safe for concurrent
// use — lookups take a read lock, so the many routers of a
// large overlay instantiate filters in parallel without contention while
// RegisterTransformation/RegisterSynchronizer may run at any time.
// Overlay nodes consult it when a stream announces its filters, which is
// the dynamic-loading moment.
type Registry struct {
	mu     sync.RWMutex
	tforms map[string]func() Transformation
	syncs  map[string]func() Synchronizer
}

// NewRegistry returns a registry pre-populated with the built-in MRNet
// filter set: transformation filters "sum", "min", "max", "avg", "count",
// "concat" (each over %d and %f payloads), the identity filter "" / "null",
// and synchronization filters "waitforall", "timeout" (50ms default
// window), and "nullsync".
func NewRegistry() *Registry {
	r := &Registry{
		tforms: map[string]func() Transformation{},
		syncs:  map[string]func() Synchronizer{},
	}
	r.RegisterTransformation("", func() Transformation { return Identity{} })
	r.RegisterTransformation("null", func() Transformation { return Identity{} })
	r.RegisterTransformation("sum", func() Transformation { return NewNumericReduce(OpSum) })
	r.RegisterTransformation("min", func() Transformation { return NewNumericReduce(OpMin) })
	r.RegisterTransformation("max", func() Transformation { return NewNumericReduce(OpMax) })
	r.RegisterTransformation("avg", func() Transformation { return NewNumericReduce(OpAvg) })
	r.RegisterTransformation("count", func() Transformation { return NewNumericReduce(OpCount) })
	r.RegisterTransformation("concat", func() Transformation { return Concat{} })
	r.RegisterSynchronizer("nullsync", func() Synchronizer { return NewNullSync() })
	r.RegisterSynchronizer("waitforall", func() Synchronizer { return NewWaitForAll(0) })
	r.RegisterSynchronizer("timeout", func() Synchronizer { return NewTimeOut(50 * time.Millisecond) })
	return r
}

// RegisterTransformation installs (or replaces) a transformation
// constructor under the given name.
func (r *Registry) RegisterTransformation(name string, ctor func() Transformation) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.tforms[name] = ctor
}

// RegisterSynchronizer installs (or replaces) a synchronizer constructor.
func (r *Registry) RegisterSynchronizer(name string, ctor func() Synchronizer) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.syncs[name] = ctor
}

// NewTransformation instantiates the named transformation filter.
func (r *Registry) NewTransformation(name string) (Transformation, error) {
	r.mu.RLock()
	ctor, ok := r.tforms[name]
	r.mu.RUnlock()
	if !ok {
		return nil, fmt.Errorf("%w: transformation %q", ErrUnknownFilter, name)
	}
	return ctor(), nil
}

// NewSynchronizer instantiates the named synchronization filter.
func (r *Registry) NewSynchronizer(name string) (Synchronizer, error) {
	r.mu.RLock()
	ctor, ok := r.syncs[name]
	r.mu.RUnlock()
	if !ok {
		return nil, fmt.Errorf("%w: synchronizer %q", ErrUnknownFilter, name)
	}
	return ctor(), nil
}

// Transformations lists the registered transformation names, sorted.
func (r *Registry) Transformations() []string {
	r.mu.RLock()
	defer r.mu.RUnlock()
	names := make([]string, 0, len(r.tforms))
	for n := range r.tforms {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// Synchronizers lists the registered synchronizer names, sorted.
func (r *Registry) Synchronizers() []string {
	r.mu.RLock()
	defer r.mu.RUnlock()
	names := make([]string, 0, len(r.syncs))
	for n := range r.syncs {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// Identity forwards packets unchanged; it is the default transformation.
type Identity struct{}

// Apply emits every input as it is.
func (Identity) Apply(in []*packet.Packet, out Emitter) error {
	for _, p := range in {
		out.Emit(p)
	}
	return nil
}
