package flatdd

// The dead-code gate: every package-level function, type, constant and
// variable under internal/ and cmd/, and every method there, must be used
// by at least one non-test file of the module (bench/ and examples/
// count). A name that only tests
// reach belongs in its package's _test.go files, or on the allowlist
// below with the reason it stays.
//
// Names are resolved with go/types over the non-test sources of every
// package of the module, so a method counts as used only when a call
// selects that method of that type. A method that implements an
// interface the module uses (one it calls through or passes values as,
// or one the standard library calls: see implicitSrc) counts as used.
//
// The engine's two structs get the same check per field: every field of
// core.Options must be set — as a composite-literal key or an assignment
// target — and every field of core.Stats read by some non-test file
// outside internal/core, or be on fieldAllowlist with a reason.

import (
	"bytes"
	"encoding/json"
	"fmt"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"testing"
)

// apiAllowlist holds the names that stay without a non-test caller,
// keyed as "<package path>.<Name>" or "<package path>.<Type>.<Method>".
var apiAllowlist = map[string]string{
	"flatdd/internal/faults.New":                      "fault injection is armed from tests only, by design (no CLI flag); production passes a nil registry",
	"flatdd/internal/faults.Registry.Arm":             "arms an injection point; the sched, core, serve and cluster fault suites call it",
	"flatdd/internal/faults.Registry.Disarm":          "heals an injection point mid-run; the cluster chaos suite revives replicas with it",
	"flatdd/internal/dd.Manager.SetGCThreshold":       "GC-stress knob the dd and ddsim suites use to force collections mid-circuit",
	"flatdd/internal/dd.Manager.VectorFromAmplitudes": "builds a state DD from amplitudes; the dd and convert suites construct their inputs with it",
	"flatdd/internal/circuit.MCX":                     "multi-controlled X, the gate the QASM writer decomposes; the circuit, qasm and statevec suites build it",
	"flatdd/internal/serve/client.WithTenant":         "public client option of the v1 API; the serve and cmd end-to-end suites use it",
	"flatdd/internal/serve/client.Client.Result":      "public v1 client call (GET /v1/jobs/{id}/result); the serve, cluster and cmd end-to-end suites use it",
	"flatdd/internal/serve/client.Client.Jobs":        "public v1 client call (GET /v1/jobs); the serve, cluster and cmd end-to-end suites list jobs with it",
	"flatdd/internal/testproc.Start":                  "test-process infrastructure: the cmd smoke suites start their server children with it so none outlives the test binary",
}

// fieldAllowlist holds the core.Options fields no non-test file outside
// internal/core sets and the core.Stats fields none reads, keyed
// "<Type>.<Field>".
var fieldAllowlist = map[string]string{
	"Stats.FusionResult": "the fusion pass's plan (fusions, modeled cost before and after); core's fusion tests check the plan through it",
}

// implicitSrc is type-checked with the module: it mentions the
// interfaces the standard library calls through on its own (fmt formats
// errors and Stringers, errors.Is and errors.As unwrap), which module
// code need not mention where it passes a value on.
const implicitSrc = `package implicit

import "fmt"

var (
	_ error
	_ fmt.Stringer
	_ interface{ Unwrap() error }
)
`

// modulePkg is one type-checked package of the module, non-test files only.
type modulePkg struct {
	path  string
	files []*ast.File
	info  *types.Info
}

// moduleSource is the module's non-test source, parsed and type-checked.
type moduleSource struct {
	fset   *token.FileSet
	pkgs   []*modulePkg // in dependency order
	byPath map[string]*types.Package
}

// loadModule type-checks every package of the module once per test
// binary. Module packages are checked from source in dependency order,
// so one object stands for each declaration wherever it is used; the
// standard library comes from the export data `go list -export` names.
var loadModule = sync.OnceValues(func() (*moduleSource, error) {
	out, err := exec.Command("go", "list", "-export", "-deps", "-json", "./...").Output()
	if err != nil {
		if ee, ok := err.(*exec.ExitError); ok {
			err = fmt.Errorf("%v: %s", err, ee.Stderr)
		}
		return nil, fmt.Errorf("go list: %w", err)
	}
	type listed struct {
		ImportPath, Dir, Export string
		GoFiles                 []string
		Standard                bool
	}
	var list []listed
	for dec := json.NewDecoder(bytes.NewReader(out)); ; {
		var p listed
		if err := dec.Decode(&p); err == io.EOF {
			break
		} else if err != nil {
			return nil, err
		}
		list = append(list, p)
	}
	exports := map[string]string{}
	for _, p := range list {
		exports[p.ImportPath] = p.Export
	}
	ms := &moduleSource{fset: token.NewFileSet(), byPath: map[string]*types.Package{}}
	std := importer.ForCompiler(ms.fset, "gc", func(path string) (io.ReadCloser, error) {
		if exports[path] == "" {
			return nil, fmt.Errorf("no export data for %q", path)
		}
		return os.Open(exports[path])
	})
	imp := importerFunc(func(path string) (*types.Package, error) {
		if p := ms.byPath[path]; p != nil {
			return p, nil
		}
		return std.Import(path)
	})
	check := func(path string, files []*ast.File) error {
		mp := &modulePkg{path: path, files: files, info: &types.Info{
			Types: map[ast.Expr]types.TypeAndValue{},
			Defs:  map[*ast.Ident]types.Object{},
			Uses:  map[*ast.Ident]types.Object{},
		}}
		conf := types.Config{Importer: imp}
		tp, err := conf.Check(path, ms.fset, files, mp.info)
		if err != nil {
			return fmt.Errorf("type-checking %s: %w", path, err)
		}
		ms.byPath[path] = tp
		ms.pkgs = append(ms.pkgs, mp)
		return nil
	}
	for _, p := range list {
		if p.Standard {
			continue
		}
		var files []*ast.File
		for _, name := range p.GoFiles {
			f, err := parser.ParseFile(ms.fset, filepath.Join(p.Dir, name), nil, parser.SkipObjectResolution)
			if err != nil {
				return nil, err
			}
			files = append(files, f)
		}
		if err := check(p.ImportPath, files); err != nil {
			return nil, err
		}
	}
	f, err := parser.ParseFile(ms.fset, "implicit.go", implicitSrc, parser.SkipObjectResolution)
	if err != nil {
		return nil, err
	}
	if err := check("implicit", []*ast.File{f}); err != nil {
		return nil, err
	}
	return ms, nil
})

type importerFunc func(path string) (*types.Package, error)

func (f importerFunc) Import(path string) (*types.Package, error) { return f(path) }

func mustLoadModule(t *testing.T) *moduleSource {
	t.Helper()
	ms, err := loadModule()
	if err != nil {
		t.Fatal(err)
	}
	return ms
}

// apiDecl is one declaration the gate checks.
type apiDecl struct {
	obj types.Object
	key string
	pos token.Position
}

func TestEveryExportedNameHasANonTestCaller(t *testing.T) {
	ms := mustLoadModule(t)
	used := map[types.Object]bool{}
	ifaces := map[*types.Interface]bool{} // interfaces the module uses
	addIface := func(typ types.Type) {
		if it, ok := typ.Underlying().(*types.Interface); ok && it.NumMethods() > 0 {
			ifaces[it] = true
		}
	}
	addIfaces := func(typ types.Type) {
		addIface(typ)
		if sig, ok := typ.(*types.Signature); ok {
			for _, tup := range []*types.Tuple{sig.Params(), sig.Results()} {
				for i := 0; i < tup.Len(); i++ {
					addIface(tup.At(i).Type())
				}
			}
		}
	}
	var decls []apiDecl
	for _, p := range ms.pkgs {
		for _, tv := range p.info.Types {
			addIfaces(tv.Type)
		}
		for _, f := range p.files {
			for _, decl := range f.Decls {
				var owner types.Object // a function's calls to itself are no use
				if fd, ok := decl.(*ast.FuncDecl); ok {
					owner = p.info.Defs[fd.Name]
					decl = &ast.FuncDecl{Name: fd.Name, Type: fd.Type, Body: fd.Body} // the receiver's type is no use
				}
				ast.Inspect(decl, func(n ast.Node) bool {
					if id, ok := n.(*ast.Ident); ok {
						if obj := p.info.Uses[id]; obj != nil && obj != owner {
							used[origin(obj)] = true
							addIfaces(obj.Type())
						}
					}
					return true
				})
			}
			if strings.HasPrefix(p.path, "flatdd/internal/") || strings.HasPrefix(p.path, "flatdd/cmd/") {
				decls = append(decls, gatedDecls(ms.fset, p, f)...)
			}
		}
	}

	var missing []string
	allowed := map[string]bool{} // allowlist entries still needed
	for _, d := range decls {
		if used[d.obj] || implementsUsed(d.obj, ifaces) {
			continue
		}
		if apiAllowlist[d.key] != "" {
			allowed[d.key] = true
			continue
		}
		missing = append(missing, d.key+" ("+d.pos.String()+")")
	}
	sort.Strings(missing)
	for _, m := range missing {
		t.Errorf("%s has no non-test caller: delete it, move it into a _test.go file, or allowlist it with a reason", m)
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

// gatedDecls lists the declarations of one file the gate checks: every
// package-level name but init, main and _, and every method.
func gatedDecls(fset *token.FileSet, p *modulePkg, f *ast.File) []apiDecl {
	var out []apiDecl
	add := func(id *ast.Ident, key string) {
		if id.Name != "init" && id.Name != "main" && id.Name != "_" {
			out = append(out, apiDecl{obj: p.info.Defs[id], key: p.path + "." + key, pos: fset.Position(id.Pos())})
		}
	}
	for _, decl := range f.Decls {
		switch d := decl.(type) {
		case *ast.FuncDecl:
			if d.Recv == nil {
				add(d.Name, d.Name.Name)
			} else {
				add(d.Name, recvNamed(p.info.Defs[d.Name]).Obj().Name()+"."+d.Name.Name)
			}
		case *ast.GenDecl:
			for _, spec := range d.Specs {
				switch sp := spec.(type) {
				case *ast.TypeSpec:
					add(sp.Name, sp.Name.Name)
				case *ast.ValueSpec:
					for _, id := range sp.Names {
						add(id, id.Name)
					}
				}
			}
		}
	}
	return out
}

// implementsUsed reports whether obj is a method that implements a
// method of one of the interfaces the module uses.
func implementsUsed(obj types.Object, ifaces map[*types.Interface]bool) bool {
	fn, ok := obj.(*types.Func)
	if !ok || fn.Type().(*types.Signature).Recv() == nil {
		return false
	}
	recv := recvNamed(fn)
	for it := range ifaces {
		for i := 0; i < it.NumMethods(); i++ {
			if it.Method(i).Id() == fn.Id() && (types.Implements(recv, it) || types.Implements(types.NewPointer(recv), it)) {
				return true
			}
		}
	}
	return false
}

// recvNamed returns the named type a method is declared on.
func recvNamed(obj types.Object) *types.Named {
	typ := obj.(*types.Func).Type().(*types.Signature).Recv().Type()
	if ptr, ok := typ.(*types.Pointer); ok {
		typ = ptr.Elem()
	}
	return typ.(*types.Named)
}

// origin maps an instantiated generic function, method or field to its
// declaration.
func origin(obj types.Object) types.Object {
	switch o := obj.(type) {
	case *types.Func:
		return o.Origin()
	case *types.Var:
		return o.Origin()
	}
	return obj
}

func TestEveryOptionIsSetAndEveryStatIsRead(t *testing.T) {
	ms := mustLoadModule(t)
	core := ms.byPath["flatdd/internal/core"]
	if core == nil {
		t.Fatal("flatdd/internal/core not loaded")
	}
	fields := map[*types.Var]string{} // field -> "<Type>.<Field>"
	for _, typ := range []string{"Options", "Stats"} {
		obj := core.Scope().Lookup(typ)
		st, ok := obj.Type().Underlying().(*types.Struct)
		if !ok {
			t.Fatalf("core.%s is not a struct", typ)
		}
		for i := 0; i < st.NumFields(); i++ {
			fields[st.Field(i)] = typ + "." + st.Field(i).Name()
		}
	}
	seen := map[string]bool{} // Options fields set and Stats fields read outside internal/core
	for _, p := range ms.pkgs {
		if p.path == "flatdd/internal/core" {
			continue
		}
		for _, f := range p.files {
			assigned := map[*ast.Ident]bool{} // selector names a plain assignment writes
			ast.Inspect(f, func(n ast.Node) bool {
				switch x := n.(type) {
				case *ast.KeyValueExpr:
					if id, ok := x.Key.(*ast.Ident); ok {
						if key := fields[fieldOf(p, id)]; strings.HasPrefix(key, "Options.") {
							seen[key] = true
						}
					}
				case *ast.AssignStmt:
					for _, l := range x.Lhs {
						if sel, ok := l.(*ast.SelectorExpr); ok {
							if key := fields[fieldOf(p, sel.Sel)]; strings.HasPrefix(key, "Options.") {
								seen[key] = true
							}
							assigned[sel.Sel] = x.Tok == token.ASSIGN
						}
					}
				case *ast.SelectorExpr:
					if key := fields[fieldOf(p, x.Sel)]; strings.HasPrefix(key, "Stats.") && !assigned[x.Sel] {
						seen[key] = true
					}
				}
				return true
			})
		}
	}
	allowed := map[string]bool{} // allowlist entries still needed
	keys := make([]string, 0, len(fields))
	for _, key := range fields {
		keys = append(keys, key)
	}
	sort.Strings(keys)
	for _, key := range keys {
		switch {
		case seen[key]:
		case fieldAllowlist[key] != "":
			allowed[key] = true
		case strings.HasPrefix(key, "Options."):
			t.Errorf("core.%s is set by no non-test file outside internal/core: delete it or allowlist it with a reason", key)
		default:
			t.Errorf("core.%s is read by no non-test file outside internal/core: delete it or allowlist it with a reason", key)
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

// fieldOf returns the struct field an identifier uses, or nil.
func fieldOf(p *modulePkg, id *ast.Ident) *types.Var {
	if v, ok := p.info.Uses[id].(*types.Var); ok && v.IsField() {
		return v.Origin()
	}
	return nil
}
