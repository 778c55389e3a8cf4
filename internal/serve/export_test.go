package serve

import (
	"repro/internal/blockstore"
	"repro/internal/cost"
)

// LiveGeneration returns the live generation's layout and store, for
// tests that reach a server through the qd facade.
func LiveGeneration(s *Server) (*cost.Layout, *blockstore.Store) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.gen.layout, s.gen.store
}
