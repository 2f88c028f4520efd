// Package suite assembles the repo's invariant analyzers in their
// canonical order. cmd/tbon-lint drives it from the command line and CI;
// the selfcheck test in this package runs it over the whole module so
// `go test ./...` enforces the clean-lint bar even where CI is not wired.
package suite

import (
	"repro/internal/lint"
	"repro/internal/lint/batchalias"
	"repro/internal/lint/creditpair"
	"repro/internal/lint/lockorder"
	"repro/internal/lint/mutationquiesce"
	"repro/internal/lint/seqstamp"
)

// All returns every analyzer in the tbon-lint suite.
func All() []*lint.Analyzer {
	return []*lint.Analyzer{
		batchalias.Analyzer,
		creditpair.Analyzer,
		lockorder.Analyzer,
		seqstamp.Analyzer,
		mutationquiesce.Analyzer,
	}
}
