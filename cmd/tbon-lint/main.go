// Command tbon-lint is the repo's invariant checker: a multichecker over
// the internal/lint suite (batchalias, creditpair, lockorder, seqstamp,
// mutationquiesce), each of which mechanically enforces one of
// the concurrency contracts written down in DESIGN.md §11.
//
// Usage:
//
//	go run ./cmd/tbon-lint ./...
//	go run ./cmd/tbon-lint -run batchalias,creditpair ./internal/core
//	go run ./cmd/tbon-lint -list
//
// Diagnostics print as file:line:col: [analyzer] message; the exit status
// is 1 if any diagnostic fired, 2 on usage or load errors. Suppress a
// finding with an auditable //tbon:allow <analyzer> <reason> comment on the
// same line or in the enclosing function's doc comment (the reason is
// mandatory — a reasonless directive is inert).
package main

import (
	"flag"
	"fmt"
	"go/token"
	"os"
	"sort"
	"strings"

	"repro/internal/lint"
	"repro/internal/lint/suite"
)

func main() {
	listFlag := flag.Bool("list", false, "list the analyzers in the suite and exit")
	runFlag := flag.String("run", "", "comma-separated analyzer names to run (default: all)")
	flag.Usage = func() {
		fmt.Fprintf(os.Stderr, "usage: tbon-lint [-list] [-run name,...] [packages]\n")
		flag.PrintDefaults()
	}
	flag.Parse()

	analyzers := suite.All()
	if *listFlag {
		for _, a := range analyzers {
			fmt.Printf("%-12s %s\n", a.Name, a.Doc)
		}
		return
	}
	if *runFlag != "" {
		byName := map[string]*lint.Analyzer{}
		for _, a := range analyzers {
			byName[a.Name] = a
		}
		var picked []*lint.Analyzer
		for _, name := range strings.Split(*runFlag, ",") {
			a, ok := byName[strings.TrimSpace(name)]
			if !ok {
				known := make([]string, 0, len(byName))
				for n := range byName {
					known = append(known, n)
				}
				sort.Strings(known)
				fmt.Fprintf(os.Stderr, "tbon-lint: unknown analyzer %q (have %s)\n", name, strings.Join(known, ", "))
				os.Exit(2)
			}
			picked = append(picked, a)
		}
		analyzers = picked
	}

	cwd, err := os.Getwd()
	if err != nil {
		fmt.Fprintf(os.Stderr, "tbon-lint: %v\n", err)
		os.Exit(2)
	}
	dirs, err := lint.ExpandPatterns(cwd, flag.Args())
	if err != nil {
		fmt.Fprintf(os.Stderr, "tbon-lint: %v\n", err)
		os.Exit(2)
	}

	fset := token.NewFileSet()
	diags, err := lint.LintDirs(fset, dirs, analyzers)
	if err != nil {
		fmt.Fprintf(os.Stderr, "tbon-lint: %v\n", err)
		os.Exit(2)
	}
	for _, d := range diags {
		fmt.Println(d.String(fset))
	}
	if len(diags) > 0 {
		fmt.Fprintf(os.Stderr, "tbon-lint: %d finding(s)\n", len(diags))
		os.Exit(1)
	}
}
