package lint

import (
	"go/ast"
	"path/filepath"
	"strings"
)

// Orphan reports an internal package that no non-test package of its
// module imports: code nothing can reach, kept alive only by its own tests
// and descriptions that still call it load-bearing. The import graph is
// that of the packages under analysis (the loader reads non-test files
// only), so the pass judges a whole module: run it over ./..., as CI
// does. A package that exists for tests alone says so with an allow
// annotation on its package clause.
var Orphan = &Analyzer{
	Name:   "orphan",
	Doc:    "reports internal packages that no non-test package of the module imports",
	Global: true,
	Run:    runOrphan,
}

func runOrphan(pass *Pass) error {
	imported := make(map[string]bool)
	for _, pkg := range pass.All {
		for _, imp := range pkg.Types.Imports() {
			imported[imp.Path()] = true
		}
	}
	for _, pkg := range pass.All {
		if len(pkg.Files) == 0 || pkg.Name == "main" || imported[pkg.Path] ||
			!strings.Contains("/"+pkg.Path+"/", "/internal/") {
			continue // a program, a directory of tests alone, or reached
		}
		pass.Reportf(packageClause(pkg).Package, "no non-test package of the module imports %s", pkg.Path)
	}
	return nil
}

// packageClause returns the file whose package clause stands for pkg: its
// doc.go, else the first file with a package comment, else its first file.
func packageClause(pkg *Package) *ast.File {
	var documented *ast.File
	for _, f := range pkg.Files {
		if filepath.Base(pkg.Fset.Position(f.Package).Filename) == "doc.go" {
			return f
		}
		if documented == nil && f.Doc != nil {
			documented = f
		}
	}
	if documented != nil {
		return documented
	}
	return pkg.Files[0]
}
