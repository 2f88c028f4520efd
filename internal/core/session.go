package core

import (
	"fmt"
	"sync/atomic"

	"repro/internal/transport"
)

// Tenant sessions multiplex many independent tools over one live overlay —
// the paper's core amortization claim. A session claims a stream-id
// namespace (see NamespaceOf) and a credit budget of one Config.LinkWindow:
// however many links the front-end fans out to, the tenant has at most one
// window of downstream data in flight across all of them, so a tenant
// whose subtree stopped consuming leaves the rest of each shared link's
// window to the others. Opening one is the front-end's bookkeeping alone:
// no node below keeps session state, and the streams opened in it announce
// themselves. Teardown is the interesting half: CloseSession closes every
// stream of the namespace at every node with a single flooded
// opCloseSession packet — no per-stream control traffic and, critically,
// no pipeline quiesce — so tearing one tenant down never parks another
// tenant's streams. Admission policy (how many sessions) lives in
// internal/session; this file is the mechanism.

// SessionInfo describes one tenant session.
type SessionInfo struct {
	// NS is the session's stream-id namespace, in [1, MaxNamespace].
	// Namespace 0 is reserved for the legacy single-tenant API.
	NS uint32
	// Tenant names the session's owner for per-tenant metrics. Empty
	// defaults to "ns<NS>".
	Tenant string
}

// sessionState is the front-end's record of an open session.
type sessionState struct {
	info     SessionInfo
	budget   *transport.Budget
	counters *TenantCounters
}

// TenantCounters are per-tenant front-end traffic counters, the
// multi-tenant analogue of Metrics. They survive session close so final
// per-tenant stats remain readable.
type TenantCounters struct {
	PacketsUp     atomic.Int64 // reduced results delivered to the tenant's streams
	PacketsDown   atomic.Int64 // multicasts sent on the tenant's streams
	StreamsOpened atomic.Int64 // streams created in the tenant's sessions
	StreamsClosed atomic.Int64 // streams torn down in the tenant's sessions
}

// Snapshot renders the counters as a name -> value map.
func (tc *TenantCounters) Snapshot() map[string]int64 {
	return map[string]int64{
		"packets_up":     tc.PacketsUp.Load(),
		"packets_down":   tc.PacketsDown.Load(),
		"streams_opened": tc.StreamsOpened.Load(),
		"streams_closed": tc.StreamsClosed.Load(),
	}
}

// OpenSession admits a tenant session: it registers the namespace and
// gives the tenant its one-window credit budget at the front-end. The
// namespace must be unused.
func (nw *Network) OpenSession(info SessionInfo) error {
	if info.NS == 0 || info.NS > MaxNamespace {
		return fmt.Errorf("core: session namespace %d out of range [1, %d]", info.NS, MaxNamespace)
	}
	if info.Tenant == "" {
		info.Tenant = fmt.Sprintf("ns%d", info.NS)
	}
	bud := transport.NewBudget(nw.cfg.LinkWindow)
	nw.mu.Lock()
	if nw.shutdown {
		nw.mu.Unlock()
		return ErrShutdown
	}
	if _, dup := nw.sessions[info.NS]; dup {
		nw.mu.Unlock()
		return fmt.Errorf("core: session namespace %d is already open", info.NS)
	}
	if nw.sessions == nil {
		nw.sessions = map[uint32]*sessionState{}
	}
	if nw.tenantStats == nil {
		nw.tenantStats = map[string]*TenantCounters{}
	}
	tc := nw.tenantStats[info.Tenant]
	if tc == nil {
		tc = &TenantCounters{}
		nw.tenantStats[info.Tenant] = tc
	}
	nw.sessions[info.NS] = &sessionState{info: info, budget: bud, counters: tc}
	nw.mu.Unlock()
	nw.metrics.SessionsOpened.Add(1)
	return nil
}

// RejectSession counts a session its admission control refused before
// OpenSession (Metrics.SessionsRejected).
func (nw *Network) RejectSession() { nw.metrics.SessionsRejected.Add(1) }

// CloseSession tears down a tenant session and every stream opened in its
// namespace, without quiescing any other tenant's pipelines: the front-end
// drops its stream state locally, aborts the tenant's credit budget (waking
// any sender blocked on it), and floods one opCloseSession packet that
// drains the namespace's synchronizers at every node behind previously
// dispatched work. Late in-flight data for the dead streams takes the
// existing pass-through paths with credits retired — the same transient
// semantics as Stream.Close.
func (nw *Network) CloseSession(ns uint32) error {
	nw.mu.Lock()
	sess := nw.sessions[ns]
	if sess == nil {
		nw.mu.Unlock()
		return fmt.Errorf("core: session namespace %d is not open", ns)
	}
	delete(nw.sessions, ns)
	var victims []*Stream
	for id, st := range nw.streams {
		if NamespaceOf(id) == ns {
			victims = append(victims, st)
		}
	}
	flood := !nw.shutdown
	nw.mu.Unlock()

	// Unblock budget-bound senders first: a Multicast parked on the
	// tenant's own budget must never outlive the session.
	sess.budget.Abort()
	for _, st := range victims {
		st.bulkClose()
	}
	nw.metrics.SessionsClosed.Add(1)
	if flood {
		nw.root.floodNow(closeSessionPacket(ns))
	}
	return nil
}

// TenantSnapshot renders every tenant's counters (including tenants whose
// sessions have closed) as tenant -> name -> value.
func (nw *Network) TenantSnapshot() map[string]map[string]int64 {
	nw.mu.Lock()
	defer nw.mu.Unlock()
	out := make(map[string]map[string]int64, len(nw.tenantStats))
	for tenant, tc := range nw.tenantStats {
		out[tenant] = tc.Snapshot()
	}
	return out
}
