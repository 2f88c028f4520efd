// Package lint is a dependency-free reimplementation of the golang.org/x/
// tools go/analysis contract, sized for this repository: an Analyzer is a
// named Run function over the parsed files of one package, reporting
// Diagnostics at token positions. The module deliberately has no external
// dependencies, so the suite of repo-specific invariant checkers under
// internal/lint/* (batchalias, creditpair, lockorder, seqstamp,
// mutationquiesce) is written against this API instead; an analyzer
// written here ports to x/tools/go/analysis by renaming the imports.
//
// The framework is purely syntactic (go/ast, no go/types): every analyzer
// encodes a repo contract in terms of the repo's own naming conventions
// (mutex field names, Recv/RecvBatch, MakeSeq, quiesce, ...), which is
// exactly the level the DESIGN.md invariants are stated at.
//
// Suppression: a comment of the form
//
//	//tbon:allow <analyzer> <reason>
//
// on the same line as a diagnostic, or in the doc comment of the enclosing
// function, suppresses that analyzer's diagnostics there. Every allow is an
// auditable exception; the reason is mandatory by convention.
package lint

import (
	"fmt"
	"go/ast"
	"go/token"
	"sort"
	"strings"
)

// Analyzer is one invariant checker.
type Analyzer struct {
	// Name identifies the analyzer in diagnostics and //tbon:allow
	// directives.
	Name string
	// Doc is the one-paragraph contract the analyzer enforces.
	Doc string
	// Run inspects the package in pass and reports findings via
	// pass.Report.
	Run func(pass *Pass) error
}

// Pass carries one package's parsed files through one analyzer run.
type Pass struct {
	Analyzer *Analyzer
	Fset     *token.FileSet
	// Files are the package's parsed files (comments retained; _test.go
	// files are excluded by the loader).
	Files []*ast.File
	// Dir is the package directory, for diagnostics and logs.
	Dir string

	diags []Diagnostic
}

// Reportf records a diagnostic at pos.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	p.diags = append(p.diags, Diagnostic{
		Analyzer: p.Analyzer.Name,
		Pos:      pos,
		Message:  fmt.Sprintf(format, args...),
	})
}

// Diagnostic is one finding.
type Diagnostic struct {
	Analyzer string
	Pos      token.Pos
	Message  string
}

// String formats the diagnostic like a compiler error, with the analyzer
// name bracketed so the failing check is greppable.
func (d Diagnostic) String(fset *token.FileSet) string {
	return fmt.Sprintf("%s: [%s] %s", fset.Position(d.Pos), d.Analyzer, d.Message)
}

// allowDirective is the suppression comment prefix.
const allowDirective = "//tbon:allow "

// allowSpec records where one //tbon:allow directive applies.
type allowSpec struct {
	analyzer string
	file     string
	// line is the directive's own line (same-line suppression).
	line int
	// funcStart/funcEnd cover the enclosing function when the directive
	// sits in a function's doc comment; zero otherwise.
	funcStart, funcEnd token.Pos
}

// collectAllows gathers every //tbon:allow directive in the files.
func collectAllows(fset *token.FileSet, files []*ast.File) []allowSpec {
	var specs []allowSpec
	for _, f := range files {
		// Map each function's doc comment to its body range.
		type span struct{ start, end token.Pos }
		docSpans := map[*ast.CommentGroup]span{}
		for _, decl := range f.Decls {
			if fd, ok := decl.(*ast.FuncDecl); ok && fd.Doc != nil {
				docSpans[fd.Doc] = span{fd.Pos(), fd.End()}
			}
		}
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				rest, ok := strings.CutPrefix(c.Text, allowDirective)
				if !ok {
					continue
				}
				name, reason, _ := strings.Cut(strings.TrimSpace(rest), " ")
				if name == "" || strings.TrimSpace(reason) == "" {
					// A reasonless allow is itself a finding; leave the
					// directive inert so the suppressed diagnostic fires.
					continue
				}
				spec := allowSpec{
					analyzer: name,
					file:     fset.Position(c.Pos()).Filename,
					line:     fset.Position(c.Pos()).Line,
				}
				if sp, ok := docSpans[cg]; ok {
					spec.funcStart, spec.funcEnd = sp.start, sp.end
				}
				specs = append(specs, spec)
			}
		}
	}
	return specs
}

// suppressed reports whether d is covered by any allow directive.
func suppressed(fset *token.FileSet, d Diagnostic, allows []allowSpec) bool {
	pos := fset.Position(d.Pos)
	for _, a := range allows {
		if a.analyzer != d.Analyzer && a.analyzer != "all" {
			continue
		}
		if a.funcStart != 0 {
			if d.Pos >= a.funcStart && d.Pos < a.funcEnd {
				return true
			}
			continue
		}
		if a.file == pos.Filename && a.line == pos.Line {
			return true
		}
	}
	return false
}

// RunAnalyzers runs each analyzer over the parsed package, applying
// //tbon:allow suppression, and returns the surviving diagnostics in
// position order.
func RunAnalyzers(fset *token.FileSet, files []*ast.File, dir string, analyzers []*Analyzer) ([]Diagnostic, error) {
	allows := collectAllows(fset, files)
	var out []Diagnostic
	for _, a := range analyzers {
		pass := &Pass{Analyzer: a, Fset: fset, Files: files, Dir: dir}
		if err := a.Run(pass); err != nil {
			return nil, fmt.Errorf("%s: %s: %w", dir, a.Name, err)
		}
		for _, d := range pass.diags {
			if !suppressed(fset, d, allows) {
				out = append(out, d)
			}
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Pos < out[j].Pos })
	return out, nil
}

// --- shared AST helpers used by several analyzers ---

// CalleeName returns the bare name a call invokes: Sel for x.Sel(...),
// the identifier for f(...), "" otherwise.
func CalleeName(call *ast.CallExpr) string {
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.SelectorExpr:
		return fun.Sel.Name
	case *ast.Ident:
		return fun.Name
	}
	return ""
}

// FuncsOf yields every function declaration with a body in the files.
func FuncsOf(files []*ast.File, fn func(*ast.FuncDecl)) {
	for _, f := range files {
		for _, decl := range f.Decls {
			if fd, ok := decl.(*ast.FuncDecl); ok && fd.Body != nil {
				fn(fd)
			}
		}
	}
}

// RecvTypeName returns the bare name of a method's receiver type, or "".
func RecvTypeName(fd *ast.FuncDecl) string {
	if fd.Recv == nil || len(fd.Recv.List) == 0 {
		return ""
	}
	t := fd.Recv.List[0].Type
	if st, ok := t.(*ast.StarExpr); ok {
		t = st.X
	}
	if id, ok := t.(*ast.Ident); ok {
		return id.Name
	}
	if ix, ok := t.(*ast.IndexExpr); ok { // generic receiver
		if id, ok := ix.X.(*ast.Ident); ok {
			return id.Name
		}
	}
	return ""
}

// RecvVarName returns the name of a method's receiver variable, or "".
func RecvVarName(fd *ast.FuncDecl) string {
	if fd.Recv == nil || len(fd.Recv.List) == 0 || len(fd.Recv.List[0].Names) == 0 {
		return ""
	}
	return fd.Recv.List[0].Names[0].Name
}
