// Package session is the multi-tenant admission layer over core's session
// mechanism. core knows how to run many tenant namespaces over one overlay
// (stream-id namespaces, a one-window credit budget per tenant,
// single-flood teardown); this package decides who gets in: a Manager caps
// how many tenants share the overlay at once and allocates namespaces.
//
// Tenants need no share of their own. Every link's egress queue is one
// FIFO, and each tenant may have at most one window of downstream data in
// flight, so a tenant that floods or stalls leaves the rest of every
// shared link's window to the others.
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

// Open admits a tenant session, or fails with ErrSessionLimit when the
// concurrent-session cap is reached.
func (m *Manager) Open(tenant string) (*Session, error) {
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
	s := &Session{m: m, ns: ns, tenant: tenant}
	m.open[ns] = s
	m.mu.Unlock()

	if err := m.nw.OpenSession(core.SessionInfo{NS: ns, Tenant: tenant}); err != nil {
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

	closeOnce sync.Once
	closeErr  error
}

// NS returns the session's stream-id namespace.
func (s *Session) NS() uint32 { return s.ns }

// Tenant returns the session's tenant name.
func (s *Session) Tenant() string { return s.tenant }

// NewStream opens a stream in the session's namespace.
func (s *Session) NewStream(spec core.StreamSpec) (*core.Stream, error) {
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
