package lint

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"
)

// AllowPrefix is the annotation that suppresses one analyzer's diagnostics
// on the annotated line (trailing comment) or the line directly below a
// standalone comment:
//
//	stepStart = time.Now() //sacslint:allow detsource metrics-plane wall-clock, outside the byte-equality contract
//
// The analyzer name is mandatory and so is the reason: an allow without a
// justification is itself a diagnostic, and an allow that suppresses
// nothing is reported as stale — the allowlist is load-bearing, never
// decorative.
const AllowPrefix = "//sacslint:allow"

// HotPathMarker tags a function as part of the allocation-free hot path,
// putting it under the hotalloc analyzer's rules. It deliberately uses the
// sacs namespace, not sacslint: the marker states a performance contract of
// the function, the linter merely enforces it.
const HotPathMarker = "//sacs:hotpath"

// Diagnostic is one analyzer finding at a source position.
type Diagnostic struct {
	Analyzer string
	Pos      token.Position
	Message  string
}

func (d Diagnostic) String() string {
	return fmt.Sprintf("%s:%d:%d: %s: %s", d.Pos.Filename, d.Pos.Line, d.Pos.Column, d.Analyzer, d.Message)
}

// Package is one loaded, parsed and type-checked package.
type Package struct {
	Path  string // import path
	Name  string // package name
	Fset  *token.FileSet
	Files []*ast.File
	Types *types.Package
	Info  *types.Info
}

// Analyzer is one static check. Per-package analyzers run once per loaded
// package with Pass.Pkg set; Global analyzers run once per suite with
// Pass.Pkg nil and see every package through Pass.All (the shape the
// snapstate cross-package check needs, which the upstream go/analysis
// driver would express through facts).
type Analyzer struct {
	Name   string
	Doc    string
	Global bool
	Run    func(*Pass) error
}

// Pass carries one analyzer invocation's inputs and its report sink.
type Pass struct {
	Analyzer *Analyzer
	Pkg      *Package   // nil for Global analyzers
	All      []*Package // every loaded package, in dependency order

	diags *[]Diagnostic
}

// Reportf records a diagnostic at pos. Suppression by //sacslint:allow
// annotations happens in the suite runner, not here.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	fset := p.fset()
	*p.diags = append(*p.diags, Diagnostic{
		Analyzer: p.Analyzer.Name,
		Pos:      fset.Position(pos),
		Message:  fmt.Sprintf(format, args...),
	})
}

func (p *Pass) fset() *token.FileSet {
	if p.Pkg != nil {
		return p.Pkg.Fset
	}
	return p.All[0].Fset
}

// allowAnn is one parsed //sacslint:allow annotation.
type allowAnn struct {
	analyzer string
	reason   string
	pos      token.Position
	used     bool
}

// annKey addresses an annotation by file and the line it covers.
type annKey struct {
	file string
	line int
}

// Suite runs analyzers over packages and returns the surviving
// diagnostics, sorted by position: analyzer findings not covered by an
// allow annotation, allows with a missing reason, and allows that
// suppressed nothing (stale).
func Suite(pkgs []*Package, analyzers []*Analyzer) ([]Diagnostic, error) {
	var raw []Diagnostic
	for _, a := range analyzers {
		pass := &Pass{Analyzer: a, All: pkgs, diags: &raw}
		if a.Global {
			if err := a.Run(pass); err != nil {
				return nil, fmt.Errorf("%s: %w", a.Name, err)
			}
			continue
		}
		for _, pkg := range pkgs {
			pass := &Pass{Analyzer: a, Pkg: pkg, All: pkgs, diags: &raw}
			if err := a.Run(pass); err != nil {
				return nil, fmt.Errorf("%s: %s: %w", a.Name, pkg.Path, err)
			}
		}
	}

	allows, bad := collectAllows(pkgs)
	var out []Diagnostic
	for _, d := range raw {
		if ann := matchAllow(allows, d); ann != nil {
			ann.used = true
			continue
		}
		out = append(out, d)
	}
	out = append(out, bad...)
	for _, list := range allows {
		for _, ann := range list {
			if ann.used {
				continue
			}
			out = append(out, Diagnostic{
				Analyzer: ann.analyzer,
				Pos:      ann.pos,
				Message:  fmt.Sprintf("stale //sacslint:allow %s annotation: it suppresses no finding", ann.analyzer),
			})
		}
	}
	sort.Slice(out, func(i, j int) bool {
		a, b := out[i], out[j]
		if a.Pos.Filename != b.Pos.Filename {
			return a.Pos.Filename < b.Pos.Filename
		}
		if a.Pos.Line != b.Pos.Line {
			return a.Pos.Line < b.Pos.Line
		}
		if a.Pos.Column != b.Pos.Column {
			return a.Pos.Column < b.Pos.Column
		}
		return a.Analyzer < b.Analyzer
	})
	return out, nil
}

// matchAllow finds an allow annotation covering d: same analyzer, same
// file, annotated on the diagnostic's own line (trailing comment) or on
// the line directly above (standalone comment).
func matchAllow(allows map[annKey][]*allowAnn, d Diagnostic) *allowAnn {
	for _, line := range [2]int{d.Pos.Line, d.Pos.Line - 1} {
		for _, ann := range allows[annKey{d.Pos.Filename, line}] {
			if ann.analyzer == d.Analyzer {
				return ann
			}
		}
	}
	return nil
}

// collectAllows indexes every //sacslint:allow annotation in the loaded
// files, reporting annotations whose reason is missing.
func collectAllows(pkgs []*Package) (map[annKey][]*allowAnn, []Diagnostic) {
	allows := make(map[annKey][]*allowAnn)
	var bad []Diagnostic
	for _, pkg := range pkgs {
		for _, f := range pkg.Files {
			for _, cg := range f.Comments {
				for _, c := range cg.List {
					if !strings.HasPrefix(c.Text, AllowPrefix) {
						continue
					}
					pos := pkg.Fset.Position(c.Pos())
					rest := strings.TrimPrefix(c.Text, AllowPrefix)
					if rest != "" && !strings.HasPrefix(rest, " ") && !strings.HasPrefix(rest, "\t") {
						continue // e.g. //sacslint:allowed — not this annotation
					}
					name, reason, _ := strings.Cut(strings.TrimSpace(rest), " ")
					if name == "" {
						bad = append(bad, Diagnostic{
							Analyzer: "sacslint",
							Pos:      pos,
							Message:  "malformed //sacslint:allow: missing analyzer name",
						})
						continue
					}
					if strings.TrimSpace(reason) == "" {
						bad = append(bad, Diagnostic{
							Analyzer: name,
							Pos:      pos,
							Message:  fmt.Sprintf("//sacslint:allow %s needs a justification: state why the contract does not apply here", name),
						})
						continue
					}
					ann := &allowAnn{analyzer: name, reason: strings.TrimSpace(reason), pos: pos}
					key := annKey{pos.Filename, pos.Line}
					allows[key] = append(allows[key], ann)
				}
			}
		}
	}
	return allows, bad
}

// All returns the full analyzer suite in a stable order.
func All() []*Analyzer {
	return []*Analyzer{DetMap, DetSource, SnapState, HotAlloc, LockAtomic, Orphan}
}
