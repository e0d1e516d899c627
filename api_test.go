package flatdd

// The exported-API gate: every exported top-level function, method, type,
// constant and variable under internal/ and cmd/ must be referenced from at least one
// non-test file of the module (bench/ and examples/ count). A name that
// only tests reach belongs in its package's _test.go files, or on the
// allowlist below with the reason it stays.
//
// The engine's two structs get the same check per field: every field of
// core.Options must be set — as a composite-literal key or an assignment
// target — and every field of core.Stats read by some non-test file
// outside internal/core, or be on fieldAllowlist with a reason. Fields
// are matched by name only, so a field whose name another struct's field
// shares passes too.

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"path/filepath"
	"sort"
	"strings"
	"testing"
)

// apiAllowlist holds the exported names that stay without a non-test
// caller, keyed as "<package path>.<Name>" or "<package path>.<Type>.<Method>".
var apiAllowlist = map[string]string{
	"flatdd/internal/faults.New":                      "fault injection is armed from tests only, by design (no CLI flag); production passes a nil registry",
	"flatdd/internal/faults.Registry.Arm":             "arms an injection point; the sched, core, serve and cluster fault suites call it",
	"flatdd/internal/faults.Registry.Disarm":          "heals an injection point mid-run; the cluster chaos suite revives replicas with it",
	"flatdd/internal/dd.Manager.Reorder":              "variable reordering is kept until the wide-register DD workload decides its fate (ROADMAP item 5)",
	"flatdd/internal/dd.Manager.SetGCThreshold":       "GC-stress knob the dd and ddsim suites use to force collections mid-circuit",
	"flatdd/internal/dd.Manager.VectorFromAmplitudes": "builds a state DD from amplitudes; the dd and convert suites construct their inputs with it",
	"flatdd/internal/circuit.MCX":                     "multi-controlled X, the gate the QASM writer decomposes; the circuit, qasm and statevec suites build it",
	"flatdd/internal/serve/client.WithTenant":         "public client option of the v1 API; the serve and cmd end-to-end suites use it",
}

// interfaceMethods are method names that satisfy standard-library
// interfaces (error, fmt.Stringer, http.Handler, sort and heap
// interfaces): they are called through the interface, never by name.
var interfaceMethods = map[string]bool{
	"Error": true, "Unwrap": true, "String": true, "ServeHTTP": true,
	"Len": true, "Less": true, "Swap": true, "Push": true, "Pop": true,
}

// goFile is one parsed source file of the module.
type goFile struct {
	pkg  string // import path of its package
	test bool
	f    *ast.File
}

// apiDecl is one exported top-level declaration.
type apiDecl struct {
	pkg, name string
	recv      string // receiver type for a method, "" otherwise
	pos       token.Position
}

func (d apiDecl) key() string {
	if d.recv != "" {
		return d.pkg + "." + d.recv + "." + d.name
	}
	return d.pkg + "." + d.name
}

// fieldAllowlist holds the core.Options fields no non-test file outside
// internal/core sets and the core.Stats fields none reads, keyed
// "<Type>.<Field>".
var fieldAllowlist = map[string]string{
	"Stats.FusionResult": "the fusion pass's plan (fusions, modeled cost before and after); core's fusion tests check the plan through it",
}

// parseModule parses every .go file of the module outside hidden and
// testdata directories.
func parseModule(t *testing.T) (*token.FileSet, []goFile) {
	t.Helper()
	fset := token.NewFileSet()
	var files []goFile
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if name := d.Name(); path != "." && (strings.HasPrefix(name, ".") || name == "testdata") {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") {
			return nil
		}
		f, err := parser.ParseFile(fset, path, nil, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		pkg := "flatdd"
		if dir := filepath.ToSlash(filepath.Dir(path)); dir != "." {
			pkg += "/" + dir
		}
		files = append(files, goFile{pkg: pkg, test: strings.HasSuffix(path, "_test.go"), f: f})
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return fset, files
}

func TestEveryExportedNameHasANonTestCaller(t *testing.T) {
	fset, files := parseModule(t)
	var decls []apiDecl
	imported := map[string]bool{}         // import paths some non-test file imports
	local := map[string]map[string]bool{} // package -> identifiers its non-test files use
	selected := map[string]bool{}         // selector names used by non-test files
	qualified := map[string]bool{}        // "<import path>.<Name>" used by non-test files
	mains := map[string]bool{}
	for _, gf := range files {
		if gf.test {
			continue
		}
		if gf.f.Name.Name == "main" {
			mains[gf.pkg] = true
		}
		if strings.HasPrefix(gf.pkg, "flatdd/internal/") || strings.HasPrefix(gf.pkg, "flatdd/cmd/") {
			decls = append(decls, exportedDecls(fset, gf)...)
		}
		names := map[string]string{} // local import name -> import path
		for _, im := range gf.f.Imports {
			path := strings.Trim(im.Path.Value, `"`)
			imported[path] = true
			name := path[strings.LastIndex(path, "/")+1:]
			if im.Name != nil {
				name = im.Name.Name
			}
			names[name] = path
		}
		if local[gf.pkg] == nil {
			local[gf.pkg] = map[string]bool{}
		}
		for name := range usedIdents(gf.f) {
			local[gf.pkg][name] = true
		}
		ast.Inspect(gf.f, func(n ast.Node) bool {
			sel, ok := n.(*ast.SelectorExpr)
			if !ok {
				return true
			}
			selected[sel.Sel.Name] = true
			if x, ok := sel.X.(*ast.Ident); ok && names[x.Name] != "" {
				qualified[names[x.Name]+"."+sel.Sel.Name] = true
			}
			return true
		})
	}

	var missing []string
	allowed := map[string]bool{} // allowlist entries still needed
	for _, d := range decls {
		switch {
		case !mains[d.pkg] && !imported[d.pkg]:
			// A package no non-test file imports is test support
			// (difftest, testproc): its whole API serves tests.
			continue
		case d.recv != "":
			if interfaceMethods[d.name] || selected[d.name] {
				continue
			}
		case local[d.pkg][d.name] || qualified[d.pkg+"."+d.name]:
			continue
		}
		if apiAllowlist[d.key()] != "" {
			allowed[d.key()] = true
			continue
		}
		missing = append(missing, d.key()+" ("+d.pos.String()+")")
	}
	sort.Strings(missing)
	for _, m := range missing {
		t.Errorf("exported %s has no non-test caller: delete it, move it into a _test.go file, or allowlist it with a reason", m)
	}
	for k, reason := range apiAllowlist {
		if !allowed[k] {
			t.Errorf("allowlist entry %s is stale: the name is gone or has a non-test caller now", k)
		}
		if strings.TrimSpace(reason) == "" {
			t.Errorf("allowlist entry %s has no reason", k)
		}
	}
	if len(apiAllowlist) > 15 {
		t.Errorf("allowlist has %d entries, want at most 15", len(apiAllowlist))
	}
}

func TestEveryOptionIsSetAndEveryStatIsRead(t *testing.T) {
	_, files := parseModule(t)
	fields := map[string][]string{} // "Options" | "Stats" -> field names
	set := map[string]bool{}        // names set outside internal/core
	read := map[string]bool{}       // names read outside internal/core
	for _, gf := range files {
		if gf.test {
			continue
		}
		if gf.pkg == "flatdd/internal/core" {
			ast.Inspect(gf.f, func(n ast.Node) bool {
				ts, ok := n.(*ast.TypeSpec)
				if !ok || (ts.Name.Name != "Options" && ts.Name.Name != "Stats") {
					return true
				}
				if st, ok := ts.Type.(*ast.StructType); ok {
					for _, f := range st.Fields.List {
						for _, id := range f.Names {
							fields[ts.Name.Name] = append(fields[ts.Name.Name], id.Name)
						}
					}
				}
				return false
			})
			continue
		}
		assigned := map[*ast.SelectorExpr]bool{}
		ast.Inspect(gf.f, func(n ast.Node) bool {
			switch x := n.(type) {
			case *ast.CompositeLit:
				for _, e := range x.Elts {
					if kv, ok := e.(*ast.KeyValueExpr); ok {
						if id, ok := kv.Key.(*ast.Ident); ok {
							set[id.Name] = true
						}
					}
				}
			case *ast.AssignStmt:
				for _, l := range x.Lhs {
					if sel, ok := l.(*ast.SelectorExpr); ok {
						set[sel.Sel.Name] = true
						assigned[sel] = x.Tok == token.ASSIGN
					}
				}
			case *ast.SelectorExpr:
				if !assigned[x] {
					read[x.Sel.Name] = true
				}
			}
			return true
		})
	}
	if len(fields["Options"]) == 0 || len(fields["Stats"]) == 0 {
		t.Fatalf("core.Options or core.Stats not found: %v", fields)
	}
	allowed := map[string]bool{} // allowlist entries still needed
	for typ, seen := range map[string]map[string]bool{"Options": set, "Stats": read} {
		for _, f := range fields[typ] {
			key := typ + "." + f
			switch {
			case seen[f]:
			case fieldAllowlist[key] != "":
				allowed[key] = true
			case typ == "Options":
				t.Errorf("core.%s is set by no non-test file outside internal/core: delete it or allowlist it with a reason", key)
			default:
				t.Errorf("core.%s is read by no non-test file outside internal/core: delete it or allowlist it with a reason", key)
			}
		}
	}
	for k, reason := range fieldAllowlist {
		if !allowed[k] {
			t.Errorf("field allowlist entry %s is stale: the field is gone or used outside internal/core now", k)
		}
		if strings.TrimSpace(reason) == "" {
			t.Errorf("field allowlist entry %s has no reason", k)
		}
	}
}

// exportedDecls lists the exported top-level functions, methods, types,
// constants and variables of one file.
func exportedDecls(fset *token.FileSet, gf goFile) []apiDecl {
	var out []apiDecl
	for _, decl := range gf.f.Decls {
		switch d := decl.(type) {
		case *ast.FuncDecl:
			if !d.Name.IsExported() {
				continue
			}
			ad := apiDecl{pkg: gf.pkg, name: d.Name.Name, pos: fset.Position(d.Pos())}
			if d.Recv != nil && len(d.Recv.List) == 1 {
				ad.recv = recvName(d.Recv.List[0].Type)
				if !ast.IsExported(ad.recv) {
					continue // a method of an unexported type is not API
				}
			}
			out = append(out, ad)
		case *ast.GenDecl:
			for _, spec := range d.Specs {
				switch sp := spec.(type) {
				case *ast.TypeSpec:
					if sp.Name.IsExported() {
						out = append(out, apiDecl{pkg: gf.pkg, name: sp.Name.Name, pos: fset.Position(sp.Pos())})
					}
				case *ast.ValueSpec:
					for _, id := range sp.Names {
						if id.IsExported() {
							out = append(out, apiDecl{pkg: gf.pkg, name: id.Name, pos: fset.Position(id.Pos())})
						}
					}
				}
			}
		}
	}
	return out
}

// recvName returns the type name of a method receiver (T, *T, T[K] or *T[K]).
func recvName(e ast.Expr) string {
	for {
		switch x := e.(type) {
		case *ast.StarExpr:
			e = x.X
		case *ast.IndexExpr:
			e = x.X
		case *ast.IndexListExpr:
			e = x.X
		case *ast.Ident:
			return x.Name
		default:
			return ""
		}
	}
}

// usedIdents returns the unqualified identifiers a file uses, leaving out
// the ones that declare something (function, type, field, variable and
// constant names, struct literal keys) and selector names, which
// TestEveryExportedNameHasANonTestCaller matches separately.
func usedIdents(f *ast.File) map[string]bool {
	declared := map[*ast.Ident]bool{}
	ast.Inspect(f, func(n ast.Node) bool {
		switch x := n.(type) {
		case *ast.FuncDecl:
			declared[x.Name] = true
		case *ast.TypeSpec:
			declared[x.Name] = true
		case *ast.Field:
			for _, id := range x.Names {
				declared[id] = true
			}
		case *ast.ValueSpec:
			for _, id := range x.Names {
				declared[id] = true
			}
		case *ast.KeyValueExpr:
			if id, ok := x.Key.(*ast.Ident); ok {
				declared[id] = true
			}
		case *ast.SelectorExpr:
			declared[x.Sel] = true
		}
		return true
	})
	used := map[string]bool{}
	ast.Inspect(f, func(n ast.Node) bool {
		if id, ok := n.(*ast.Ident); ok && !declared[id] {
			used[id.Name] = true
		}
		return true
	})
	return used
}
