package beatbgp_test

import (
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"testing"
)

// TestReferenceEngineIsTestOnly keeps the recursive reference engine out
// of production code: outside internal/bgp, only _test.go files may call
// bgp.NewReference, bgp.Compute or bgp.ComputeWithout. Everything else
// routes through the lowered engine (Scenario.Routes, CDN.Routes, the
// Oracle), so the reference stays what it is for — the oracle the batch
// engine is checked against.
func TestReferenceEngineIsTestOnly(t *testing.T) {
	banned := map[string]bool{"NewReference": true, "Compute": true, "ComputeWithout": true}
	fset := token.NewFileSet()
	var offenders []string
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			name := d.Name()
			if path == filepath.Join("internal", "bgp") || name == "testdata" ||
				(path != "." && (strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_"))) {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") {
			return nil
		}
		f, err := parser.ParseFile(fset, path, nil, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		local := ""
		for _, imp := range f.Imports {
			if p, _ := strconv.Unquote(imp.Path.Value); p == "beatbgp/internal/bgp" {
				local = "bgp"
				if imp.Name != nil {
					local = imp.Name.Name
				}
			}
		}
		if local == "" {
			return nil
		}
		ast.Inspect(f, func(n ast.Node) bool {
			sel, ok := n.(*ast.SelectorExpr)
			if !ok || !banned[sel.Sel.Name] {
				return true
			}
			if x, ok := sel.X.(*ast.Ident); ok && x.Name == local {
				offenders = append(offenders, fmt.Sprintf("%s: bgp.%s", fset.Position(sel.Pos()), sel.Sel.Name))
			}
			return true
		})
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	sort.Strings(offenders)
	for _, o := range offenders {
		t.Errorf("%s: the reference engine is test-only; use the scenario's lowered engine", o)
	}
}
