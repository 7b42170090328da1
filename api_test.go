package beatbgp_test

import (
	"bytes"
	"go/ast"
	"go/parser"
	"go/printer"
	"go/token"
	"io/fs"
	"os"
	"path/filepath"
	"regexp"
	"slices"
	"strings"
	"testing"
)

// apiPath is the API ledger: one line per exported declaration, method,
// struct field and interface method of every package outside cmd/,
// examples/ and bench/, in the spirit of Go's own api/*.txt.
var apiPath = filepath.Join("testdata", "api.txt")

// TestAPILedger fails when the exported surface drifts from the ledger,
// so every change to it shows in a diff of testdata/api.txt. Rewrite the
// ledger with `go test -run TestAPILedger -update .`.
func TestAPILedger(t *testing.T) {
	got, err := apiLines(".")
	if err != nil {
		t.Fatal(err)
	}
	if *update {
		if err := os.WriteFile(apiPath, []byte(strings.Join(got, "\n")+"\n"), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	data, err := os.ReadFile(apiPath)
	if err != nil {
		t.Fatal(err)
	}
	want := strings.Split(strings.TrimSuffix(string(data), "\n"), "\n")
	var added, removed []string
	for _, l := range got {
		if _, ok := slices.BinarySearch(want, l); !ok {
			added = append(added, "+ "+l)
		}
	}
	for _, l := range want {
		if _, ok := slices.BinarySearch(got, l); !ok {
			removed = append(removed, "- "+l)
		}
	}
	if len(added)+len(removed) > 0 {
		t.Fatalf("exported surface differs from %s (rewrite it with -update if the change is deliberate):\n%s",
			apiPath, strings.Join(append(removed, added...), "\n"))
	}
}

// apiLines walks root's non-test Go files, skipping cmd/, examples/,
// bench/ and the directories the go tool ignores, and returns the sorted,
// de-duplicated ledger lines.
func apiLines(root string) ([]string, error) {
	fset := token.NewFileSet()
	var lines []string
	err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		name := d.Name()
		if d.IsDir() {
			switch {
			case path == root:
				return nil
			case name == "testdata", strings.HasPrefix(name, "."), strings.HasPrefix(name, "_"):
				return filepath.SkipDir
			case filepath.Dir(path) == root && (name == "cmd" || name == "examples" || name == "bench"):
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(name, ".go") || strings.HasSuffix(name, "_test.go") {
			return nil
		}
		f, err := parser.ParseFile(fset, path, nil, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		pkg := "beatbgp"
		if dir := filepath.ToSlash(filepath.Dir(path)); dir != "." {
			pkg += "/" + dir
		}
		lines = append(lines, fileAPI(fset, "pkg "+pkg+", ", f)...)
		return nil
	})
	slices.Sort(lines)
	return slices.Compact(lines), err
}

// fileAPI lists one file's exported surface, each line behind prefix.
func fileAPI(fset *token.FileSet, prefix string, f *ast.File) []string {
	src := func(n ast.Node) string {
		var b bytes.Buffer
		printer.Fprint(&b, fset, n)
		return b.String()
	}
	var out []string
	emit := func(s string) { out = append(out, prefix+s) }
	for _, decl := range f.Decls {
		switch d := decl.(type) {
		case *ast.FuncDecl:
			if !d.Name.IsExported() {
				continue
			}
			if d.Recv == nil {
				emit("func " + d.Name.Name + typeParams(src, d.Type.TypeParams) + signature(src, d.Type))
				continue
			}
			recv := src(d.Recv.List[0].Type)
			if base, _, _ := strings.Cut(strings.TrimPrefix(recv, "*"), "["); ast.IsExported(base) {
				emit("method (" + recv + ") " + d.Name.Name + signature(src, d.Type))
			}
		case *ast.GenDecl:
			var lastType ast.Expr // a const spec without values repeats the previous type
			for _, spec := range d.Specs {
				switch s := spec.(type) {
				case *ast.TypeSpec:
					if s.Name.IsExported() {
						out = append(out, typeAPI(src, prefix, s)...)
					}
				case *ast.ValueSpec:
					if s.Type != nil || len(s.Values) > 0 {
						lastType = s.Type
					}
					for _, n := range s.Names {
						if !n.IsExported() {
							continue
						}
						line := d.Tok.String() + " " + n.Name
						if lastType != nil && (d.Tok == token.CONST || s.Type != nil) {
							line += " " + src(lastType)
						}
						emit(line)
					}
				}
			}
		}
	}
	return out
}

// typeAPI lists an exported type: its kind, then one line per exported
// struct field or interface method.
func typeAPI(src func(ast.Node) string, prefix string, s *ast.TypeSpec) []string {
	head := "type " + s.Name.Name + typeParams(src, s.TypeParams)
	if s.Assign.IsValid() {
		return []string{prefix + head + " = " + src(s.Type)}
	}
	var out []string
	switch t := s.Type.(type) {
	case *ast.StructType:
		head += " struct"
		for _, f := range t.Fields.List {
			if len(f.Names) == 0 {
				out = append(out, prefix+head+", embedded "+src(f.Type))
			}
			for _, n := range f.Names {
				if n.IsExported() {
					out = append(out, prefix+head+", "+n.Name+" "+src(f.Type))
				}
			}
		}
	case *ast.InterfaceType:
		head += " interface"
		for _, m := range t.Methods.List {
			if len(m.Names) == 0 {
				out = append(out, prefix+head+", embedded "+src(m.Type))
			}
			for _, n := range m.Names {
				if ft, ok := m.Type.(*ast.FuncType); ok && n.IsExported() {
					out = append(out, prefix+head+", "+n.Name+signature(src, ft))
				}
			}
		}
	default:
		head += " " + src(s.Type)
	}
	return append(out, prefix+head)
}

// signature renders a function type without parameter names:
// "(int, ...string) (T, error)".
func signature(src func(ast.Node) string, ft *ast.FuncType) string {
	sig := "(" + strings.Join(fieldTypes(src, ft.Params), ", ") + ")"
	res := fieldTypes(src, ft.Results)
	switch {
	case len(res) == 1:
		sig += " " + res[0]
	case len(res) > 1:
		sig += " (" + strings.Join(res, ", ") + ")"
	}
	return sig
}

// typeParams renders a type-parameter list, names kept: "[T any]".
func typeParams(src func(ast.Node) string, tp *ast.FieldList) string {
	if tp == nil {
		return ""
	}
	var ps []string
	for _, f := range tp.List {
		var names []string
		for _, n := range f.Names {
			names = append(names, n.Name)
		}
		ps = append(ps, strings.Join(names, ", ")+" "+src(f.Type))
	}
	return "[" + strings.Join(ps, ", ") + "]"
}

// fieldTypes lists a field list's types, one per declared name.
func fieldTypes(src func(ast.Node) string, fl *ast.FieldList) []string {
	if fl == nil {
		return nil
	}
	var out []string
	for _, f := range fl.List {
		for range max(1, len(f.Names)) {
			out = append(out, src(f.Type))
		}
	}
	return out
}

// calledOnlyFromOtherTests lists the exported helpers under internal/
// that no non-test code names, each with the reason it stays.
var calledOnlyFromOtherTests = map[string]string{
	"internal/bgp.NewReference":             "the recursive reference oracle the differential tests compare against (TestReferenceEngineIsTestOnly)",
	"internal/bgp.ConvergenceMinutes":       "the closed-form model internal/core's session differential test checks the replay against",
	"internal/delta.Epoch.DownSet":          "internal/core's epoch tests read the compiled down set through it",
	"internal/session.History.CtlDown":      "internal/core's epoch tests check the compiled epochs against the control-plane spans",
	"internal/session.Config.MeanDetectSec": "internal/core's session differential test reads the expected detection latency",
	"internal/xrand.Rand.Poisson":           "the serve stress test draws its open-loop arrivals with it",
	"internal/geo.Catalog.All":              "netsim's world test walks every city through it",
	"internal/stats.NewSketch":              "the serve stress test's latency histograms; ROADMAP 4 builds the daemon's on stats.Sketch",
	"internal/stats.Sketch.Merge":           "as stats.NewSketch",
}

// facadeRef matches a qualified reference to a root facade name in the
// docs' code snippets.
var facadeRef = regexp.MustCompile(`\bbeatbgp\.([A-Z]\w*)`)

// interfaceMethods are method names that exist to satisfy a standard
// library interface (error, fmt.Stringer, errors.Unwrap, sort.Interface,
// heap.Interface) and need not be called by name.
var interfaceMethods = map[string]bool{
	"Error": true, "String": true, "Unwrap": true,
	"Len": true, "Less": true, "Swap": true, "Push": true, "Pop": true,
}

// TestExportedNamesHaveCallers fails when an exported func, method or
// type under internal/ is named by no non-test Go file in the repository
// (cmd/, examples/ and bench/ included) other than at a declaration: an
// export only its own tests call is not a result, and belongs in the
// test or nowhere. Methods on unexported types are not checked. The
// match is by name, so it can miss a dead export whose name something
// else uses, but it never flags a live one.
//
// The root facade is held to the same rule, by qualified name: each of
// its exported types, funcs, consts and vars must be named as beatbgp.X
// by a Go file outside it or a README.md/DESIGN.md snippet, or be used
// by the facade itself (a type in one of its signatures). Tests count
// here: a test that drives the facade calls it as any importer would.
func TestExportedNamesHaveCallers(t *testing.T) {
	fset := token.NewFileSet()
	used := make(map[string]bool)     // identifier names outside declarations
	rootUsed := make(map[string]bool) // facade names: beatbgp.X anywhere, or used inside the facade
	decls := make(map[string]string)  // "internal/pkg.[Recv.]Name" or "beatbgp.Name" -> position
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		name := d.Name()
		if d.IsDir() {
			if path != "." && (name == "testdata" || strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_")) {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(name, ".go") {
			return nil
		}
		f, err := parser.ParseFile(fset, path, nil, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		dir := filepath.ToSlash(filepath.Dir(path))
		if strings.HasSuffix(name, "_test.go") { // a test counts only as a caller of the facade
			ast.Inspect(f, func(n ast.Node) bool {
				if sel, ok := n.(*ast.SelectorExpr); ok {
					if x, ok := sel.X.(*ast.Ident); ok && x.Name == "beatbgp" {
						rootUsed[sel.Sel.Name] = true
					}
				}
				return true
			})
			return nil
		}
		declared := make(map[*ast.Ident]bool)
		selected := make(map[*ast.Ident]bool) // the X.Sel of a selector
		declare := func(id *ast.Ident) {
			declared[id] = true
			if dir == "." && id.IsExported() {
				decls["beatbgp."+id.Name] = fset.Position(id.Pos()).String()
			}
		}
		ast.Inspect(f, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.FuncDecl:
				declared[n.Name] = true
				key := dir + "." + n.Name.Name
				if n.Recv != nil {
					// A receiver does not use its type: mark its
					// identifiers, then key the method by the base type.
					recv := n.Recv.List[0].Type
					var base *ast.Ident
					ast.Inspect(recv, func(r ast.Node) bool {
						if id, ok := r.(*ast.Ident); ok {
							declared[id] = true
							if base == nil {
								base = id
							}
						}
						return true
					})
					if !base.IsExported() || interfaceMethods[n.Name.Name] {
						break
					}
					key = dir + "." + base.Name + "." + n.Name.Name
				} else {
					declare(n.Name)
				}
				if strings.HasPrefix(dir, "internal/") && n.Name.IsExported() {
					decls[key] = fset.Position(n.Name.Pos()).String()
				}
			case *ast.TypeSpec:
				declare(n.Name)
				if strings.HasPrefix(dir, "internal/") && n.Name.IsExported() {
					decls[dir+"."+n.Name.Name] = fset.Position(n.Name.Pos()).String()
				}
			case *ast.ValueSpec:
				for _, id := range n.Names {
					declare(id)
				}
			case *ast.Field:
				for _, id := range n.Names {
					declared[id] = true
				}
			case *ast.SelectorExpr:
				if x, ok := n.X.(*ast.Ident); ok && x.Name == "beatbgp" {
					rootUsed[n.Sel.Name] = true
				}
				selected[n.Sel] = true
			case *ast.Ident:
				if !declared[n] {
					used[n.Name] = true
					if dir == "." && !selected[n] { // core.Table names no facade Table
						rootUsed[n.Name] = true
					}
				}
			}
			return true
		})
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, doc := range []string{"README.md", "DESIGN.md"} {
		data, err := os.ReadFile(doc)
		if err != nil {
			t.Fatal(err)
		}
		for _, m := range facadeRef.FindAllStringSubmatch(string(data), -1) {
			rootUsed[m[1]] = true
		}
	}
	for key := range calledOnlyFromOtherTests {
		if _, ok := decls[key]; !ok {
			t.Errorf("allowlisted %s is not declared any more: drop it from calledOnlyFromOtherTests", key)
		}
	}
	var dead []string
	for key, pos := range decls {
		_, allowed := calledOnlyFromOtherTests[key]
		switch name := key[strings.LastIndex(key, ".")+1:]; {
		case strings.HasPrefix(key, "beatbgp."):
			if !rootUsed[name] {
				dead = append(dead, pos+": "+key)
			}
		case used[name] && allowed:
			t.Errorf("allowlisted %s is named by non-test code: drop it from calledOnlyFromOtherTests", key)
		case !used[name] && !allowed:
			dead = append(dead, pos+": "+key)
		}
	}
	slices.Sort(dead)
	if len(dead) > 0 {
		t.Fatalf("exported names no non-test code calls (delete them, or unexport them and keep them in the test that uses them):\n%s",
			strings.Join(dead, "\n"))
	}
}
