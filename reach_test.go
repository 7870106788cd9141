package repro

// The least-code gate: every package-level declaration of the module, and
// every method, must be reachable from what runs. The roots are the main
// function of every command and example, repro.go's exported names, every
// init and every package-level variable initializer, and all of the bench
// module, which imports internal packages but is not changed with them.
// Test files are not callers, and neither is a blank assertion
// var _ I = T{}. A method is reached with its receiver type when it
// implements a method of a reached interface: the module's own, any
// standard-library interface, and the Unwrap, Is and As that errors.Is and
// errors.As look for. A constant of an iota block is reached with its
// block. A declaration that stays without a caller is named in reachAllow
// with its reason.

import (
	"fmt"
	"go/ast"
	"go/build"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"maps"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"
)

// reachAllow names the declarations that no root reaches but that stay,
// each with the reason it stays. An entry that a root or another entry
// reaches anyway, or that names no declaration, fails the gate.
var reachAllow = map[string]string{
	"repro/internal/hierarchy.Generic": "the simulated generic algorithm that hierarchy's tests and bench_test.go check RunAnalytic against",

	// Fixtures that the tests of several packages build or walk trees with.
	"repro/internal/graph.BuildStar":         "fixture: the graph, hierarchy, sim and coloring tests",
	"repro/internal/graph.BuildCaterpillar":  "fixture: the graph, hierarchy, sim and labeling tests",
	"repro/internal/graph.Builder.MustBuild": "fixture: the graph, decomp, weighted, labeling and coloring tests",
	"repro/internal/graph.Tree.BFS":          "fixture: distances in the graph, dfree, labeling and coloring tests; ecc(v) for the non-triviality share of ROADMAP item 2",
	"repro/internal/graph.Tree.Neighbors":    "fixture: the graph, sim, dfree and labeling tests",
	"repro/internal/graph.Tree.Edges":        "fixture: the graph and hierarchy tests, and coloring's oracle for VerifyProperColoring",

	// Engine options and IDs that the sim examples and the tests of several
	// packages set.
	"repro/internal/sim.WithInputs":    "engine option: the sim, hierarchy and root tests",
	"repro/internal/sim.WithMaxRounds": "engine option: the sim examples and the sim, hierarchy, coloring and root tests",
	"repro/internal/sim.SequentialIDs": "the IDs of the sim examples and tests",

	"repro/internal/exp.FrameTypes": "the worker frame list that docs_test.go's DISTRIBUTED.md gate and proto_test.go read",
}

// TestEveryDeclarationIsReached fails on every declaration that nothing in
// the module reaches except tests, and on every stale reachAllow entry.
func TestEveryDeclarationIsReached(t *testing.T) {
	s, err := loadReach(".", "bench")
	if err != nil {
		t.Fatal(err)
	}
	if len(reachAllow) > 15 {
		t.Errorf("reachAllow has %d entries; keep it at 15 or fewer", len(reachAllow))
	}
	for name, why := range reachAllow {
		if strings.TrimSpace(why) == "" {
			t.Errorf("reachAllow: %s has no reason", name)
		}
	}
	dead, stale := s.check(reachAllow)
	for _, e := range stale {
		t.Errorf("reachAllow: %s", e)
	}
	for _, d := range dead {
		t.Errorf("%s has no non-test caller: delete it, move it into the test that uses it, or add it to reachAllow with a reason", d)
	}
}

// TestReachScanFindsDeadCode runs the scan on testdata/reach, a module with
// one case of each rule, so the gate above cannot pass by finding nothing.
func TestReachScanFindsDeadCode(t *testing.T) {
	s, err := loadReach(filepath.Join("testdata", "reach"))
	if err != nil {
		t.Fatal(err)
	}
	const lib = "reachdemo/internal/lib."
	want := []string{
		lib + "Shape.Sides", // a method no interface asks for, on a reached type
		lib + "dead",        // a function with no caller
		lib + "ghost",       // a type only a blank assertion mentions
		lib + "ghost.Name",
		lib + "ping", // two functions that only call each other
		lib + "pong",
		lib + "unusedTable", // a variable read by nothing; its initializer still runs
	}
	dead, stale := s.check(nil)
	if !slices.Equal(dead, want) || len(stale) != 0 {
		t.Fatalf("unreached %q, stale %q; want unreached %q", dead, stale, want)
	}

	dead, stale = s.check(map[string]string{
		lib + "dead": "kept on purpose",
		lib + "ping": "pong comes with it",
		lib + "Used": "main calls it",
		lib + "gone": "deleted",
	})
	want = []string{lib + "Shape.Sides", lib + "ghost", lib + "ghost.Name", lib + "unusedTable"}
	if !slices.Equal(dead, want) {
		t.Errorf("with an allowlist, unreached %q; want %q", dead, want)
	}
	wantStale := []string{
		lib + "Used: reached without its entry",
		lib + "gone: no such declaration",
	}
	if !slices.Equal(stale, wantStale) {
		t.Errorf("stale %q; want %q", stale, wantStale)
	}
}

// reachDecl is one node of the reference graph: a package-level
// declaration, a method, or an anonymous root (an init or main body, a
// variable initializer).
type reachDecl struct {
	name   string             // import path, then the receiver type if any, then the name; "" for an anonymous root
	refs   []types.Object     // declarations and methods it mentions
	ifaces []*types.Interface // interface types it spells out
	group  []types.Object     // the constants of its iota block
}

// reachImpl records that a concrete type implements an interface: once both
// are reached, so are the methods the interface selects.
type reachImpl struct {
	typ     *reachDecl
	owner   *reachDecl // the node that spells the interface; nil for a standard-library one
	methods []*reachDecl
}

type reachScan struct {
	fset    *token.FileSet
	info    *types.Info
	std     types.Importer
	files   map[string][]*ast.File // non-test files of the scanned packages, by import path
	extra   map[string]bool        // packages whose declarations are all roots
	rootPkg string                 // import path of the module's root package
	checked map[string]*types.Package

	decls map[types.Object]*reachDecl
	nodes []*reachDecl // every node
	roots []*reachDecl
	order []*reachDecl // the declarations the gate reports, in source order
	impls []reachImpl
}

// loadReach type-checks the non-test files of the module at root, and of
// each extra module directory under it, whose declarations become roots.
func loadReach(root string, extra ...string) (*reachScan, error) {
	s := &reachScan{
		fset:    token.NewFileSet(),
		std:     importer.Default(),
		files:   map[string][]*ast.File{},
		extra:   map[string]bool{},
		checked: map[string]*types.Package{},
		decls:   map[types.Object]*reachDecl{},
		info: &types.Info{
			Types: map[ast.Expr]types.TypeAndValue{},
			Defs:  map[*ast.Ident]types.Object{},
			Uses:  map[*ast.Ident]types.Object{},
		},
	}
	if err := s.addModule(root, false); err != nil {
		return nil, err
	}
	for _, dir := range extra {
		if err := s.addModule(filepath.Join(root, dir), true); err != nil {
			return nil, err
		}
	}
	paths := slices.Sorted(maps.Keys(s.files))
	for _, path := range paths {
		if _, err := s.Import(path); err != nil {
			return nil, err
		}
	}
	for _, path := range paths {
		s.collect(path)
	}
	s.implementations()
	return s, nil
}

// addModule parses the non-test Go files of every package in the module
// rooted at dir, skipping testdata, hidden directories and nested modules.
func (s *reachScan) addModule(dir string, extra bool) error {
	module, err := modulePath(filepath.Join(dir, "go.mod"))
	if err != nil {
		return err
	}
	return filepath.WalkDir(dir, func(path string, d os.DirEntry, err error) error {
		if err != nil || !d.IsDir() {
			return err
		}
		if path != dir {
			if name := d.Name(); name == "testdata" || strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_") {
				return filepath.SkipDir
			}
			if _, err := os.Stat(filepath.Join(path, "go.mod")); err == nil {
				return filepath.SkipDir
			}
		}
		entries, err := os.ReadDir(path)
		if err != nil {
			return err
		}
		var files []*ast.File
		for _, e := range entries {
			name := e.Name()
			if e.IsDir() || !strings.HasSuffix(name, ".go") || strings.HasSuffix(name, "_test.go") {
				continue
			}
			match, err := build.Default.MatchFile(path, name)
			if err != nil {
				return err
			}
			if !match {
				continue
			}
			f, err := parser.ParseFile(s.fset, filepath.Join(path, name), nil, parser.SkipObjectResolution)
			if err != nil {
				return err
			}
			files = append(files, f)
		}
		if len(files) == 0 {
			return nil
		}
		rel, err := filepath.Rel(dir, path)
		if err != nil {
			return err
		}
		importPath := module
		if rel != "." {
			importPath += "/" + filepath.ToSlash(rel)
		} else if !extra {
			s.rootPkg = importPath
		}
		s.files[importPath] = files
		s.extra[importPath] = extra
		return nil
	})
}

// modulePath reads the module line of a go.mod file.
func modulePath(gomod string) (string, error) {
	data, err := os.ReadFile(gomod)
	if err != nil {
		return "", err
	}
	for line := range strings.Lines(string(data)) {
		if rest, ok := strings.CutPrefix(strings.TrimSpace(line), "module "); ok {
			return strings.TrimSpace(rest), nil
		}
	}
	return "", fmt.Errorf("%s: no module line", gomod)
}

// Import type-checks a package of the scanned modules from source, and
// takes every other package from the standard library's export data.
func (s *reachScan) Import(path string) (*types.Package, error) {
	if p := s.checked[path]; p != nil {
		return p, nil
	}
	files, ok := s.files[path]
	if !ok {
		return s.std.Import(path)
	}
	conf := types.Config{Importer: s}
	p, err := conf.Check(path, s.fset, files, s.info)
	if err != nil {
		return nil, err
	}
	s.checked[path] = p
	return p, nil
}

// collect adds the declarations and roots of one package to the graph.
func (s *reachScan) collect(path string) {
	allRoots := s.extra[path]
	apiRoots := path == s.rootPkg
	root := func(ns ...ast.Node) {
		s.roots = append(s.roots, s.node(nil, ns...))
	}
	decl := func(obj types.Object, n ast.Node) {
		d := s.node(obj, n)
		if allRoots || apiRoots && obj.Exported() {
			s.roots = append(s.roots, d)
		} else {
			s.order = append(s.order, d)
		}
	}
	for _, f := range s.files[path] {
		for _, gen := range f.Decls {
			switch gen := gen.(type) {
			case *ast.FuncDecl:
				name := gen.Name.Name
				if gen.Recv == nil && (name == "init" || name == "main" && f.Name.Name == "main") || name == "_" {
					root(gen)
				} else {
					decl(s.info.Defs[gen.Name], gen)
				}
			case *ast.GenDecl:
				var block []types.Object // the constants, if the block uses iota
				usesIota := false
				for _, spec := range gen.Specs {
					switch spec := spec.(type) {
					case *ast.TypeSpec:
						decl(s.info.Defs[spec.Name], spec)
					case *ast.ValueSpec:
						if s.isAssertion(spec) {
							continue
						}
						if gen.Tok == token.CONST {
							usesIota = usesIota || mentions(spec, "iota")
						} else if len(spec.Values) > 0 {
							// The initializer runs whether or not the
							// variable is read.
							vs := make([]ast.Node, len(spec.Values))
							for i, v := range spec.Values {
								vs[i] = v
							}
							root(vs...)
						}
						for _, name := range spec.Names {
							if name.Name == "_" {
								continue
							}
							obj := s.info.Defs[name]
							if gen.Tok == token.CONST {
								decl(obj, spec)
								block = append(block, obj)
							} else {
								decl(obj, spec.Type)
							}
						}
					}
				}
				if usesIota {
					for _, obj := range block {
						s.decls[obj].group = block
					}
				}
			}
		}
	}
}

// isAssertion reports whether a value spec is a blank compile-time
// assertion such as var _ I = T{} or var _ I = (*T)(nil): every name blank
// and no function called.
func (s *reachScan) isAssertion(spec *ast.ValueSpec) bool {
	for _, name := range spec.Names {
		if name.Name != "_" {
			return false
		}
	}
	calls := false
	for _, v := range spec.Values {
		ast.Inspect(v, func(n ast.Node) bool {
			if call, ok := n.(*ast.CallExpr); ok && !s.info.Types[call.Fun].IsType() {
				calls = true
			}
			return !calls
		})
	}
	return !calls
}

// mentions reports whether a value spec's values use the identifier name.
func mentions(spec *ast.ValueSpec, name string) bool {
	found := false
	for _, v := range spec.Values {
		ast.Inspect(v, func(n ast.Node) bool {
			if id, ok := n.(*ast.Ident); ok && id.Name == name {
				found = true
			}
			return !found
		})
	}
	return found
}

// node adds a node for obj, or an anonymous one for a nil obj, holding what
// the syntax ns mentions: the scanned packages' declarations and methods,
// and the interface types spelled out.
func (s *reachScan) node(obj types.Object, ns ...ast.Node) *reachDecl {
	d := &reachDecl{}
	if obj != nil {
		d.name = declName(obj)
		s.decls[obj] = d
	}
	s.nodes = append(s.nodes, d)
	for _, n := range ns {
		if n == nil {
			continue
		}
		ast.Inspect(n, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.Ident:
				if obj := origin(s.info.Uses[n]); obj != nil && s.isDecl(obj) {
					d.refs = append(d.refs, obj)
				}
			case *ast.InterfaceType:
				if it, ok := s.info.Types[n].Type.(*types.Interface); ok && it.NumMethods() > 0 {
					d.ifaces = append(d.ifaces, it)
				}
			}
			return true
		})
	}
	return d
}

// origin maps an instantiated function or field to its generic declaration.
func origin(obj types.Object) types.Object {
	switch o := obj.(type) {
	case *types.Func:
		return o.Origin()
	case *types.Var:
		return o.Origin()
	}
	return obj
}

// isDecl reports whether obj is a package-level object or a method of a
// scanned package.
func (s *reachScan) isDecl(obj types.Object) bool {
	if obj.Pkg() == nil || s.files[obj.Pkg().Path()] == nil {
		return false
	}
	if f, ok := obj.(*types.Func); ok && f.Signature().Recv() != nil {
		return true
	}
	return obj.Parent() == obj.Pkg().Scope()
}

// declName names a declaration as its import path, then the receiver type
// of a method, then the name.
func declName(obj types.Object) string {
	if f, ok := obj.(*types.Func); ok {
		if recv := f.Signature().Recv(); recv != nil {
			t := recv.Type()
			if p, ok := t.(*types.Pointer); ok {
				t = p.Elem()
			}
			if n, ok := t.(*types.Named); ok {
				return obj.Pkg().Path() + "." + n.Obj().Name() + "." + obj.Name()
			}
		}
	}
	return obj.Pkg().Path() + "." + obj.Name()
}

// implementations records every pair of a concrete type of the scanned
// packages and an interface it implements, with the methods the interface
// selects. The interfaces are those spelled out in the scanned packages,
// every named interface of the standard packages they import, error, and
// the methods errors.Is and errors.As look for.
func (s *reachScan) implementations() {
	type iface struct {
		it    *types.Interface
		owner *reachDecl
	}
	var ifaces []iface
	for _, d := range s.nodes {
		for _, it := range d.ifaces {
			ifaces = append(ifaces, iface{it, d})
		}
	}
	for _, it := range errorsInterfaces() {
		ifaces = append(ifaces, iface{it, nil})
	}
	ifaces = append(ifaces, iface{types.Universe.Lookup("error").Type().Underlying().(*types.Interface), nil})
	seen := map[*types.Package]bool{}
	var walk func(p *types.Package)
	walk = func(p *types.Package) {
		if seen[p] {
			return
		}
		seen[p] = true
		if s.files[p.Path()] == nil {
			for _, name := range p.Scope().Names() {
				if tn, ok := p.Scope().Lookup(name).(*types.TypeName); ok && !tn.IsAlias() {
					if it, ok := tn.Type().Underlying().(*types.Interface); ok && it.NumMethods() > 0 {
						ifaces = append(ifaces, iface{it, nil})
					}
				}
			}
		}
		for _, q := range p.Imports() {
			walk(q)
		}
	}
	for _, p := range s.checked {
		walk(p)
	}

	for obj, d := range s.decls {
		tn, ok := obj.(*types.TypeName)
		if !ok || tn.IsAlias() {
			continue
		}
		named, ok := tn.Type().(*types.Named)
		if !ok || named.NumMethods() == 0 || named.TypeParams() != nil || types.IsInterface(named) {
			continue
		}
		ptr := types.NewPointer(named)
		mset := types.NewMethodSet(ptr)
		for _, in := range ifaces {
			first := in.it.Method(0)
			if mset.Lookup(first.Pkg(), first.Name()) == nil || !types.Implements(ptr, in.it) {
				continue
			}
			im := reachImpl{typ: d, owner: in.owner}
			for m := range in.it.Methods() {
				if md := s.decls[origin(mset.Lookup(m.Pkg(), m.Name()).Obj())]; md != nil {
					im.methods = append(im.methods, md)
				}
			}
			if len(im.methods) > 0 {
				s.impls = append(s.impls, im)
			}
		}
	}
}

// errorsInterfaces returns the anonymous interfaces that errors.Is and
// errors.As assert inside their bodies, which export data does not show.
func errorsInterfaces() []*types.Interface {
	errT := types.Universe.Lookup("error").Type()
	boolT := types.Typ[types.Bool]
	tuple := func(ts ...types.Type) *types.Tuple {
		vs := make([]*types.Var, len(ts))
		for i, t := range ts {
			vs[i] = types.NewParam(token.NoPos, nil, "", t)
		}
		return types.NewTuple(vs...)
	}
	method := func(name string, params, results *types.Tuple) *types.Interface {
		sig := types.NewSignatureType(nil, nil, nil, params, results, false)
		return types.NewInterfaceType([]*types.Func{types.NewFunc(token.NoPos, nil, name, sig)}, nil).Complete()
	}
	return []*types.Interface{
		method("Unwrap", tuple(), tuple(errT)),
		method("Unwrap", tuple(), tuple(types.NewSlice(errT))),
		method("Is", tuple(errT), tuple(boolT)),
		method("As", tuple(types.Universe.Lookup("any").Type()), tuple(boolT)),
	}
}

// reach returns every node reached from the roots and from the extra nodes.
func (s *reachScan) reach(extra []*reachDecl) map[*reachDecl]bool {
	seen := map[*reachDecl]bool{}
	var work []*reachDecl
	visit := func(d *reachDecl) {
		if d != nil && !seen[d] {
			seen[d] = true
			work = append(work, d)
		}
	}
	for _, d := range slices.Concat(s.roots, extra) {
		visit(d)
	}
	for len(work) > 0 {
		for len(work) > 0 {
			d := work[len(work)-1]
			work = work[:len(work)-1]
			for _, obj := range slices.Concat(d.refs, d.group) {
				visit(s.decls[obj])
			}
		}
		for _, im := range s.impls {
			if seen[im.typ] && (im.owner == nil || seen[im.owner]) {
				for _, m := range im.methods {
					visit(m)
				}
			}
		}
	}
	return seen
}

// check returns, sorted, the declarations that neither a root nor an
// allowlist entry reaches, and the allowlist entries that are stale: an
// entry that names no declaration, or one that the roots and the other
// entries reach without it.
func (s *reachScan) check(allow map[string]string) (dead, stale []string) {
	byName := map[string]*reachDecl{}
	for _, d := range s.order {
		byName[d.name] = d
	}
	var entries []*reachDecl
	for _, name := range slices.Sorted(maps.Keys(allow)) {
		if d := byName[name]; d != nil {
			entries = append(entries, d)
		} else {
			stale = append(stale, name+": no such declaration")
		}
	}
	for i, d := range entries {
		if s.reach(slices.Concat(entries[:i], entries[i+1:]))[d] {
			stale = append(stale, d.name+": reached without its entry")
		}
	}
	seen := s.reach(entries)
	for _, d := range s.order {
		if !seen[d] {
			dead = append(dead, d.name)
		}
	}
	slices.Sort(dead)
	slices.Sort(stale)
	return dead, stale
}
