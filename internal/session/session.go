// Package session is the multi-tenant admission and fair-share policy
// layer over core's session mechanism. core knows how to run many tenant
// namespaces over one overlay (stream-id namespaces, credit sub-budgets,
// single-flood teardown); this package decides who gets in and on what
// terms: a Manager caps how many tenants share the overlay at once,
// allocates namespaces, and maps a tenant's declared weight onto the
// egress scheduler's priority classes.
//
// The weight mapping is deliberately simple. Streams of equal priority
// round-robin packet-for-packet on every link, so tenants of equal weight
// share each link's credit window fairly without any extra machinery;
// a higher weight moves the tenant into a strictly preferred class whose
// queued data flushes first. Weight w maps to priority w-1, so weight-1
// tenants coexist in class 0 with the legacy single-tenant API's streams.
package session

import (
	"errors"
	"fmt"
	"sync"

	"repro/internal/core"
)

// ErrSessionLimit is returned by Manager.Open when the concurrent-session
// cap is reached. Callers gate retry/backoff on it with errors.Is.
var ErrSessionLimit = errors.New("session: concurrent session limit reached")

// DefaultMaxSessions is the admission cap when Config.MaxSessions is 0.
const DefaultMaxSessions = 16

// Config parameterizes a Manager.
type Config struct {
	// MaxSessions caps how many sessions may be open at once; 0 means
	// DefaultMaxSessions, negative means unlimited.
	MaxSessions int
}

// Manager admits tenant sessions onto one shared overlay.
type Manager struct {
	nw  *core.Network
	max int

	mu     sync.Mutex
	nextNS uint32
	open   map[uint32]*Session
}

// NewManager wraps an already-running network. The Manager does not own
// the network: closing the manager closes its sessions, never the overlay.
func NewManager(nw *core.Network, cfg Config) *Manager {
	max := cfg.MaxSessions
	if max == 0 {
		max = DefaultMaxSessions
	}
	return &Manager{nw: nw, max: max, nextNS: 1, open: map[uint32]*Session{}}
}

// Option tunes one session at Open.
type Option func(*settings)

type settings struct {
	weight int
	budget int
}

// WithWeight sets the tenant's fair share, >= 1. Equal-weight tenants
// split link bandwidth evenly (their streams round-robin in one egress
// class); a higher weight is a strictly preferred class. Default 1.
func WithWeight(w int) Option {
	return func(s *settings) { s.weight = w }
}

// WithBudget caps how many link send credits the tenant may hold at once,
// as a sub-window of the network's Config.LinkWindow (values out of range
// clamp to the full window). Default: the full window.
func WithBudget(credits int) Option {
	return func(s *settings) { s.budget = credits }
}

// Open admits a tenant session, or fails with ErrSessionLimit when the
// concurrent-session cap is reached.
func (m *Manager) Open(tenant string, opts ...Option) (*Session, error) {
	set := settings{weight: 1}
	for _, o := range opts {
		o(&set)
	}
	if set.weight < 1 {
		return nil, fmt.Errorf("session: weight %d < 1", set.weight)
	}

	m.mu.Lock()
	if m.max >= 0 && len(m.open) >= m.max {
		n := len(m.open)
		m.mu.Unlock()
		m.nw.RejectSession()
		return nil, fmt.Errorf("session: %d sessions already open (cap %d): %w",
			n, m.max, ErrSessionLimit)
	}
	ns, err := m.allocNS()
	if err != nil {
		m.mu.Unlock()
		return nil, err
	}
	s := &Session{m: m, ns: ns, tenant: tenant, prio: set.weight - 1}
	m.open[ns] = s
	m.mu.Unlock()

	if err := m.nw.OpenSession(core.SessionInfo{
		NS:       ns,
		Tenant:   tenant,
		Priority: s.prio,
		Budget:   set.budget,
	}); err != nil {
		m.mu.Lock()
		delete(m.open, ns)
		m.mu.Unlock()
		return nil, err
	}
	return s, nil
}

// allocNS picks the next free namespace; called with m.mu held.
func (m *Manager) allocNS() (uint32, error) {
	for i := 0; i < core.MaxNamespace; i++ {
		ns := m.nextNS
		m.nextNS++
		if m.nextNS > core.MaxNamespace {
			m.nextNS = 1
		}
		if _, used := m.open[ns]; !used {
			return ns, nil
		}
	}
	return 0, errors.New("session: no free namespace")
}

// Active reports how many sessions are currently open.
func (m *Manager) Active() int {
	m.mu.Lock()
	defer m.mu.Unlock()
	return len(m.open)
}

// Close closes every open session. It does NOT shut the network down —
// the overlay belongs to its owner, and other clients (or a later
// manager) may still be using it.
func (m *Manager) Close() error {
	m.mu.Lock()
	open := make([]*Session, 0, len(m.open))
	for _, s := range m.open {
		open = append(open, s)
	}
	m.mu.Unlock()
	var first error
	for _, s := range open {
		if err := s.Close(); err != nil && first == nil {
			first = err
		}
	}
	return first
}

// Session is one tenant's handle onto the shared overlay.
type Session struct {
	m      *Manager
	ns     uint32
	tenant string
	prio   int

	closeOnce sync.Once
	closeErr  error
}

// NS returns the session's stream-id namespace.
func (s *Session) NS() uint32 { return s.ns }

// Tenant returns the session's tenant name.
func (s *Session) Tenant() string { return s.tenant }

// Priority returns the egress class the session's weight mapped to.
func (s *Session) Priority() int { return s.prio }

// NewStream opens a stream in the session's namespace. A zero
// spec.Priority inherits the session's fair-share class; explicit
// priorities are honored, so a tenant may still rank its own streams.
func (s *Session) NewStream(spec core.StreamSpec) (*core.Stream, error) {
	if spec.Priority == 0 {
		spec.Priority = s.prio
	}
	return s.m.nw.NewStreamNS(s.ns, spec)
}

// Stats returns the tenant's traffic counters (shared across all of the
// tenant's sessions, surviving close).
func (s *Session) Stats() map[string]int64 {
	return s.m.nw.TenantSnapshot()[s.tenant]
}

// Close tears the session down: every stream in its namespace closes at
// every node via one flooded control packet, without quiescing other
// tenants. Idempotent; the first result is sticky.
func (s *Session) Close() error {
	s.closeOnce.Do(func() {
		s.m.mu.Lock()
		delete(s.m.open, s.ns)
		s.m.mu.Unlock()
		s.closeErr = s.m.nw.CloseSession(s.ns)
	})
	return s.closeErr
}
