// Command topoconvet runs the repo's custom analyzer suite (internal/lint):
// atomicwrite, quarantine, ctxflow, allocfree and facadesync — the
// project's durability, hygiene, cancellation, hot-path and facade
// invariants as compile-time checks.
//
// It takes only package patterns (default ./...), resolves them with
// `go list -export` from the current directory, and runs every analyzer
// over every matched package:
//
//	topoconvet ./...
//
// A finding is silenced only by a justified //topocon:allow directive in
// the source, never by a command-line switch. Exit codes follow vet
// convention: 0 clean, 1 failure, 2 findings.
package main

import (
	"fmt"
	"os"
	"strings"

	"topocon/internal/lint"
)

func main() {
	patterns := os.Args[1:]
	for _, p := range patterns {
		if strings.HasPrefix(p, "-") {
			fmt.Fprintf(os.Stderr, "topoconvet: unknown flag %s\nusage: topoconvet [packages]\n", p)
			os.Exit(1)
		}
	}
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}
	diags, err := lint.LoadAndRun(".", patterns, lint.All())
	if err != nil {
		fmt.Fprintf(os.Stderr, "topoconvet: %v\n", err)
		os.Exit(1)
	}
	for _, d := range diags {
		fmt.Fprintln(os.Stderr, d)
	}
	if len(diags) > 0 {
		os.Exit(2)
	}
}
