package lint

import (
	"go/ast"
	"go/parser"
	"go/token"
	"os"
	"path/filepath"
	"sort"
	"strings"
)

// skipDir reports whether a directory never contributes lintable packages:
// testdata trees (analyzer fixtures), VCS metadata, and hidden/underscore
// directories, mirroring the go tool's rules.
func skipDir(name string) bool {
	return name == "testdata" || name == "vendor" ||
		strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_")
}

// GoDirs returns every directory under root (inclusive) that contains at
// least one non-test .go file, sorted.
func GoDirs(root string) ([]string, error) {
	seen := map[string]bool{}
	err := filepath.WalkDir(root, func(path string, d os.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if path != root && skipDir(d.Name()) {
				return filepath.SkipDir
			}
			return nil
		}
		if strings.HasSuffix(path, ".go") && !strings.HasSuffix(path, "_test.go") {
			seen[filepath.Dir(path)] = true
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	dirs := make([]string, 0, len(seen))
	for d := range seen {
		dirs = append(dirs, d)
	}
	sort.Strings(dirs)
	return dirs, nil
}

// ExpandPatterns resolves go-tool-style package patterns relative to cwd:
// "./..." and "dir/..." expand recursively, anything else is a single
// directory. An empty pattern list means "./...".
func ExpandPatterns(cwd string, patterns []string) ([]string, error) {
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}
	seen := map[string]bool{}
	var out []string
	add := func(dirs ...string) {
		for _, d := range dirs {
			if !seen[d] {
				seen[d] = true
				out = append(out, d)
			}
		}
	}
	for _, pat := range patterns {
		if rest, ok := strings.CutSuffix(pat, "..."); ok {
			base := filepath.Join(cwd, strings.TrimSuffix(rest, "/"))
			if rest == "" || rest == "./" {
				base = cwd
			}
			dirs, err := GoDirs(base)
			if err != nil {
				return nil, err
			}
			add(dirs...)
			continue
		}
		add(filepath.Join(cwd, pat))
	}
	sort.Strings(out)
	return out, nil
}

// ParseDir parses a directory's non-test .go files with comments.
func ParseDir(fset *token.FileSet, dir string) ([]*ast.File, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	var files []*ast.File
	for _, e := range entries {
		name := e.Name()
		if e.IsDir() || !strings.HasSuffix(name, ".go") || strings.HasSuffix(name, "_test.go") {
			continue
		}
		f, err := parser.ParseFile(fset, filepath.Join(dir, name), nil, parser.ParseComments)
		if err != nil {
			return nil, err
		}
		files = append(files, f)
	}
	return files, nil
}

// LintDirs parses each directory as one package and runs the analyzers,
// returning all surviving diagnostics in deterministic order.
func LintDirs(fset *token.FileSet, dirs []string, analyzers []*Analyzer) ([]Diagnostic, error) {
	var out []Diagnostic
	for _, dir := range dirs {
		files, err := ParseDir(fset, dir)
		if err != nil {
			return nil, err
		}
		if len(files) == 0 {
			continue
		}
		ds, err := RunAnalyzers(fset, files, dir, analyzers)
		if err != nil {
			return nil, err
		}
		out = append(out, ds...)
	}
	return out, nil
}
