package drdp_test

import (
	"bufio"
	"errors"
	"go/ast"
	"go/build"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io/fs"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"sync"
	"testing"
)

// unusedExportsFile lists the exported package-level names and methods
// that nothing outside their own package's tests calls, the exported
// fields no non-test code sets, and the declarations no root reaches.
// TestExportedSurface, TestExportedMembers, TestExportedFields and
// TestReachable keep it exact, so each list can only shrink on purpose.
const unusedExportsFile = "testdata/unused_exports.txt"

// moduleSurface audits this module once for the four tests.
var moduleSurface = sync.OnceValues(func() (unused, error) { return unusedExports(".") })

// TestExportedSurface type-checks every package in the module, with its
// tests, and lists each exported package-level name (func, type, var,
// const) that is referenced by nothing except its own package's tests:
// not by the package's own code, and not by any other package, command,
// example, benchmark or test. A method or field in use keeps its type in
// use. The list must equal the allowlist in both directions: a new
// unused export fails, and so does an allowlisted name that gained a
// caller or was deleted.
func TestExportedSurface(t *testing.T) {
	got, err := moduleSurface()
	if err != nil {
		t.Fatal(err)
	}
	want, err := readAllowlist(unusedExportsFile)
	if err != nil {
		t.Fatal(err)
	}
	compareAllowlist(t, "exported names", got.names, want.names, fixCallers)
}

// TestExportedMembers applies the same rule one level down, to the
// exported methods of the module's named types (interfaces included): a
// method counts as called when non-test code or another package's tests
// reference it, or when it is in the method set of an interface its type
// satisfies and the interface's method is called (any method of a
// standard-library interface the module names, such as io.Writer or
// sort.Interface). String, Error, Is and Unwrap count as called, since
// fmt and errors call them. Every allowlisted method carries its reason
// after a '#' on its own line.
func TestExportedMembers(t *testing.T) {
	got, err := moduleSurface()
	if err != nil {
		t.Fatal(err)
	}
	want, err := readAllowlist(unusedExportsFile)
	if err != nil {
		t.Fatal(err)
	}
	requireReasons(t, want, want.members)
	compareAllowlist(t, "exported methods", got.members, want.members, fixCallers)
}

// TestExportedFields lists each exported field of the module's
// package-level struct types that no non-test code sets: none names it
// in a keyed composite literal, fills its struct positionally, assigns
// or increments it (or an element of it), or takes its address, and it
// carries no struct tag for a codec to set it by. Such a field is a knob
// only tests turn. Each allowlisted field ("field
// <path>.<Type>.<Field>") carries its reason after a '#'.
func TestExportedFields(t *testing.T) {
	got, err := moduleSurface()
	if err != nil {
		t.Fatal(err)
	}
	want, err := readAllowlist(unusedExportsFile)
	if err != nil {
		t.Fatal(err)
	}
	requireReasons(t, want, want.fields)
	compareAllowlist(t, "exported fields", got.fields, want.fields,
		"set them in non-test code, or make them constants or delete them")
}

// TestReachable lists every top-level declaration of non-test code,
// exported or not, methods included, that no root reaches. The roots are
// each main package's main, every init and blank initializer, and what
// other packages' tests reference; a reached declaration reaches what it
// references, and a method is also reached when its type is and an
// interface the type satisfies has that method called by reached code.
// Dead code therefore keeps nothing alive, not even through a cycle or
// a forwarding wrapper. Names and methods the allowlist already holds
// for TestExportedSurface and TestExportedMembers are not listed again;
// every other allowlisted declaration ("dead <path>.<Name>" or
// "dead <path>.<Type>.<Method>") carries its reason after a '#'.
func TestReachable(t *testing.T) {
	got, err := moduleSurface()
	if err != nil {
		t.Fatal(err)
	}
	want, err := readAllowlist(unusedExportsFile)
	if err != nil {
		t.Fatal(err)
	}
	requireReasons(t, want, want.dead)
	var dead []string
	for _, d := range got.dead {
		if !slices.Contains(want.names, d) && !slices.Contains(want.members, d) {
			dead = append(dead, d)
		}
	}
	compareAllowlist(t, "declarations", dead, want.dead,
		"give them a live caller, or move them into test files or delete them")
}

// fixCallers is what the name and member rules ask of a new entry.
const fixCallers = "give them a caller outside their own package's tests, or unexport or delete them"

func requireReasons(t *testing.T, want allowlist, entries []string) {
	t.Helper()
	for _, e := range entries {
		if want.reasons[e] == "" {
			t.Errorf("%s is allowlisted in %s without a reason", e, unusedExportsFile)
		}
	}
}

// compareAllowlist fails for each entry got holds and want does not,
// saying how to fix it, and for each stale entry of want.
func compareAllowlist(t *testing.T, what string, got, want []string, fix string) {
	t.Helper()
	var added, stale []string
	for _, name := range got {
		if !slices.Contains(want, name) {
			added = append(added, name)
		}
	}
	for _, name := range want {
		if !slices.Contains(got, name) {
			stale = append(stale, name)
		}
	}
	if len(added) > 0 {
		t.Errorf("%d %s are new to the list; %s:\n\t%s",
			len(added), what, fix, strings.Join(added, "\n\t"))
	}
	if len(stale) > 0 {
		t.Errorf("%d %s in %s are no longer listed or no longer exist; remove them from it:\n\t%s",
			len(stale), what, unusedExportsFile, strings.Join(stale, "\n\t"))
	}
	t.Logf("%d %s listed", len(got), what)
}

// fixtureSurface audits the fixture module (testdata/surface), which
// holds one case per rule, so a rule that stops holding fails by name.
var fixtureSurface = sync.OnceValues(func() (unused, error) { return unusedExports("testdata/surface") })

// TestUnusedExportsRules pins the name rules on the fixture.
func TestUnusedExportsRules(t *testing.T) {
	got, err := fixtureSurface()
	if err != nil {
		t.Fatal(err)
	}
	want := []string{
		"lib.Asserted", // used only by a blank assertion
		"lib.Iface",    // used only by a blank assertion
		"lib.Self",     // used only by its own methods
		"lib.TestOnly", // used only by its own package's tests
	}
	if !slices.Equal(got.names, want) {
		t.Errorf("unused exports of the fixture = %q, want %q", got.names, want)
	}
}

// TestUnusedMembersRules pins the member rules on the same fixture:
// each method listed breaks one rule, and lib's other methods are each
// kept by one: Self.Get (called by non-test code, its sibling), Impl.Via
// (called through the Via interface), Source.Get and Source.Peek (called
// through Store, Peek only by dead code), Inner.Promoted (called through
// Outer, which embeds Inner), Kind.String and Kind.Is (called by fmt and
// errors), Sorted's three (called by sort) and Field.ByOtherTest (called
// by another package's tests).
func TestUnusedMembersRules(t *testing.T) {
	got, err := fixtureSurface()
	if err != nil {
		t.Fatal(err)
	}
	want := []string{
		"lib.Asserted.M",  // its interface is used only by a blank assertion
		"lib.Iface.M",     // never called through its interface
		"lib.Impl.NotVia", // in no interface anything calls through
		"lib.Self.Double", // called only by its own package's tests
	}
	if !slices.Equal(got.members, want) {
		t.Errorf("unused methods of the fixture = %q, want %q", got.members, want)
	}
}

// TestExportedFieldsRules pins the field rule on the fixture: each field
// listed is set by no non-test code, and Knobs' other fields and Pair's
// are each set one way (keyed literal, assignment, address-of,
// increment, element assignment, struct tag, positional literal).
func TestExportedFieldsRules(t *testing.T) {
	got, err := fixtureSurface()
	if err != nil {
		t.Fatal(err)
	}
	want := []string{
		"lib.Field.N",       // read by another package, never set
		"lib.Knobs.TestSet", // set only by its own package's tests
		"lib.Self.N",        // set only by its own package's tests
	}
	if !slices.Equal(got.fields, want) {
		t.Errorf("unset fields of the fixture = %q, want %q", got.fields, want)
	}
}

// TestReachableRules pins the reachability rule on the fixture. Besides
// what the name and member rules list, it lists what only dead code
// reaches: Self.Get (called by its dead sibling), a dead cycle (ping,
// pong) and a forwarding wrapper's method with what it forwards to
// (gate.Peek, Source.Peek), and an unexported function only its own
// package's tests call. The live cycle (even, odd), gate.Get and
// ForOtherTest, which only another package's tests call, stay off it.
func TestReachableRules(t *testing.T) {
	got, err := fixtureSurface()
	if err != nil {
		t.Fatal(err)
	}
	want := []string{
		"lib.Asserted",    // used only by a blank assertion
		"lib.Asserted.M",  // its type is dead
		"lib.Iface",       // used only by a blank assertion
		"lib.Impl.NotVia", // in no interface anything calls through
		"lib.Self",        // used only by its own methods and tests
		"lib.Self.Double", // called only by its own package's tests
		"lib.Self.Get",    // called only by its dead sibling
		"lib.Source.Peek", // called only through the dead gate.Peek
		"lib.TestOnly",    // called only by its own package's tests
		"lib.gate.Peek",   // the only caller of Store.Peek, and itself dead
		"lib.ping",        // a dead cycle
		"lib.pong",        // a dead cycle
		"lib.testedOnly",  // called only by its own package's tests
	}
	if !slices.Equal(got.dead, want) {
		t.Errorf("dead declarations of the fixture = %q, want %q", got.dead, want)
	}
}

// allowlist is unusedExportsFile parsed: package-level names, methods
// ("<path>.<Type>.<Method>"), fields (after "field ") and dead
// declarations (after "dead "), with the reason after each one's '#'.
type allowlist struct {
	names, members, fields, dead []string
	reasons                      map[string]string
}

func readAllowlist(path string) (allowlist, error) {
	a := allowlist{reasons: map[string]string{}}
	f, err := os.Open(path)
	if err != nil {
		return a, err
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		entry, reason, _ := strings.Cut(sc.Text(), "#")
		entry = strings.TrimSpace(entry)
		list := &a.names
		if rest, ok := strings.CutPrefix(entry, "field "); ok {
			entry, list = rest, &a.fields
		} else if rest, ok := strings.CutPrefix(entry, "dead "); ok {
			entry, list = rest, &a.dead
		} else if isMember(entry) {
			list = &a.members
		}
		if entry != "" {
			*list = append(*list, entry)
			a.reasons[entry] = strings.TrimSpace(reason)
		}
	}
	return a, sc.Err()
}

// isMember reports an entry that names a method: two dots after the last
// slash of its package path.
func isMember(entry string) bool {
	return strings.Count(entry[strings.LastIndex(entry, "/")+1:], ".") == 2
}

// surfacePkg is one directory of the module: its parsed package,
// in-package test and external test files.
type surfacePkg struct {
	files, tests, xtests []*ast.File
}

// surface type-checks module packages on demand and records which
// exported package-level objects are referenced from where it counts,
// what each top-level declaration of non-test code references, and which
// fields non-test code sets.
type surface struct {
	fset    *token.FileSet
	std     types.Importer
	pkgs    map[string]*surfacePkg
	checked map[string]*types.Package // non-test variants, by import path
	owner   map[*types.Var]types.Object
	used    map[string]bool // "path.Name"
	calls   callSet         // by non-test code and other packages' tests
	// decls holds every top-level declaration of non-test code (a
	// function, method, type, var or const) and the objects it
	// references; rootUses what the roots reference: main and init
	// functions, blank initializers and other packages' tests.
	decls    map[types.Object][]types.Object
	rootUses []types.Object
	set      map[*types.Var]bool // fields non-test code sets
}

// callSet is what some code calls: methods, and the interfaces whose
// called methods reach their implementations.
type callSet struct {
	fns    map[*types.Func]bool
	ifaces map[types.Type]bool
}

func newCallSet() callSet {
	return callSet{fns: map[*types.Func]bool{}, ifaces: map[types.Type]bool{}}
}

// unused is what the audit lists, each sorted: exported package-level
// names, exported methods as "<path>.<Type>.<Method>", exported fields no
// non-test code sets as "<path>.<Type>.<Field>", and declarations no
// root reaches as "<path>.<Name>" or "<path>.<Type>.<Method>".
type unused struct {
	names, members, fields, dead []string
}

// protocolMethods are called by fmt and errors through interfaces the
// module never names.
var protocolMethods = []string{"String", "Error", "Is", "Unwrap"}

// unusedExports audits the module at root. Each entry it lists starts
// with the import path relative to the module ("drdp." for the root).
func unusedExports(root string) (unused, error) {
	modPath, err := modulePath(filepath.Join(root, "go.mod"))
	if err != nil {
		return unused{}, err
	}
	// Standard-library sources are type-checked without cgo, so the audit
	// needs no C toolchain; only the module's own code matters here.
	build.Default.CgoEnabled = false
	s := &surface{
		fset:    token.NewFileSet(),
		pkgs:    map[string]*surfacePkg{},
		checked: map[string]*types.Package{},
		owner:   map[*types.Var]types.Object{},
		used:    map[string]bool{},
		calls:   newCallSet(),
		decls:   map[types.Object][]types.Object{},
		set:     map[*types.Var]bool{},
	}
	s.std = importer.ForCompiler(s.fset, "source", nil)
	if err := s.load(root, modPath); err != nil {
		return unused{}, err
	}
	paths := make([]string, 0, len(s.pkgs))
	for path := range s.pkgs {
		paths = append(paths, path)
	}
	slices.Sort(paths)
	for _, path := range paths {
		p := s.pkgs[path]
		if _, err := s.Import(path); err != nil {
			return unused{}, err
		}
		if len(p.tests) > 0 {
			if err := s.check(path, append(slices.Clip(p.files), p.tests...), path); err != nil {
				return unused{}, err
			}
		}
		if len(p.xtests) > 0 {
			if err := s.check(path+"_test", p.xtests, path); err != nil {
				return unused{}, err
			}
		}
	}
	var named []*types.Named
	for _, path := range paths {
		scope := s.checked[path].Scope()
		for _, name := range scope.Names() {
			if tn, ok := scope.Lookup(name).(*types.TypeName); ok && !tn.IsAlias() {
				named = append(named, tn.Type().(*types.Named))
			}
		}
	}
	s.callImplementations(named, s.calls)

	relPath := func(pkg *types.Package) string {
		if pkg.Path() == modPath {
			return pkg.Name()
		}
		return strings.TrimPrefix(pkg.Path(), modPath+"/")
	}
	var u unused
	for _, path := range paths {
		scope := s.checked[path].Scope()
		rel := relPath(s.checked[path])
		for _, name := range scope.Names() {
			exported := token.IsExported(name)
			if exported && !s.used[path+"."+name] {
				u.names = append(u.names, rel+"."+name)
			}
			tn, ok := scope.Lookup(name).(*types.TypeName)
			if !ok || tn.IsAlias() {
				continue
			}
			if exported {
				for _, m := range declaredMethods(tn.Type().(*types.Named)) {
					if m.Exported() && !s.calls.fns[m] && !slices.Contains(protocolMethods, m.Name()) {
						u.members = append(u.members, rel+"."+name+"."+m.Name())
					}
				}
			}
			if st, ok := tn.Type().Underlying().(*types.Struct); ok {
				for i := 0; i < st.NumFields(); i++ {
					// A tagged field is set by the codec that reads its
					// tag (json.Unmarshal), by reflection.
					if f := st.Field(i); f.Exported() && !s.set[f] && st.Tag(i) == "" {
						u.fields = append(u.fields, rel+"."+name+"."+f.Name())
					}
				}
			}
		}
	}
	live := s.reachable()
	for obj := range s.decls {
		if live[obj] {
			continue
		}
		name := obj.Name()
		if fn, ok := obj.(*types.Func); ok && fn.Type().(*types.Signature).Recv() != nil {
			name = s.ownerOf(fn).Name() + "." + name
		}
		u.dead = append(u.dead, relPath(obj.Pkg())+"."+name)
	}
	slices.Sort(u.members)
	slices.Sort(u.fields)
	slices.Sort(u.dead)
	return u, nil
}

// reachable returns the declarations a root reaches. A reached
// declaration reaches what it references, a field its struct type, and a
// reached type its String, Error, Is and Unwrap methods. Calls through an
// interface reach, by callImplementations, the methods of reached types
// that run in their place: a method only code that is itself unreached
// calls through an interface stays unreached, even when that code is the
// method's own forwarding wrapper.
func (s *surface) reachable() map[types.Object]bool {
	live := map[types.Object]bool{}
	calls := newCallSet()
	var queue []types.Object
	reach := func(obj types.Object) {
		if _, ok := s.decls[obj]; ok && !live[obj] {
			live[obj] = true
			queue = append(queue, obj)
		}
	}
	follow := func(uses []types.Object) {
		for _, use := range uses {
			s.note(calls, use)
			reach(s.declOf(use))
		}
	}
	follow(s.rootUses)
	for len(queue) > 0 {
		for len(queue) > 0 {
			obj := queue[len(queue)-1]
			queue = queue[:len(queue)-1]
			follow(s.decls[obj])
			if tn, ok := obj.(*types.TypeName); ok && !tn.IsAlias() {
				for _, m := range declaredMethods(tn.Type().(*types.Named)) {
					if slices.Contains(protocolMethods, m.Name()) {
						reach(m)
					}
				}
			}
		}
		var named []*types.Named
		for obj := range live {
			if tn, ok := obj.(*types.TypeName); ok && !tn.IsAlias() {
				named = append(named, tn.Type().(*types.Named))
			}
		}
		s.callImplementations(named, calls)
		for fn := range calls.fns {
			reach(fn)
		}
	}
	return live
}

// declOf maps a referenced object to the declaration it belongs to: a
// field to its struct type, an instantiated function or method to its
// generic origin. Anything else stands for itself.
func (s *surface) declOf(obj types.Object) types.Object {
	switch o := obj.(type) {
	case *types.Func:
		return o.Origin()
	case *types.Var:
		if o.IsField() {
			return s.owner[o.Origin()]
		}
	}
	return obj
}

// declaredMethods returns the methods a named type declares itself: an
// interface's explicit methods, or a concrete type's.
func declaredMethods(t *types.Named) []*types.Func {
	var ms []*types.Func
	if iface, ok := t.Underlying().(*types.Interface); ok {
		for i := 0; i < iface.NumExplicitMethods(); i++ {
			ms = append(ms, iface.ExplicitMethod(i))
		}
		return ms
	}
	for i := 0; i < t.NumMethods(); i++ {
		ms = append(ms, t.Method(i))
	}
	return ms
}

// callImplementations marks in cs, for every interface of cs whose
// methods are called, the method each of the named types that satisfies
// it runs in their place: the promoted one included. Every method of a
// standard-library interface counts as called, since the library calls
// it unseen.
func (s *surface) callImplementations(named []*types.Named, cs callSet) {
	for it := range cs.ifaces {
		iface := it.Underlying().(*types.Interface)
		std := false
		if n, ok := it.(*types.Named); ok {
			std = n.Obj().Pkg() == nil || s.pkgs[n.Obj().Pkg().Path()] == nil
		}
		for _, t := range named {
			if types.IsInterface(t) || !implements(t, it) {
				continue
			}
			for i := 0; i < iface.NumMethods(); i++ {
				m := iface.Method(i)
				if !std && !cs.fns[m.Origin()] {
					continue
				}
				obj, _, _ := types.LookupFieldOrMethod(types.NewPointer(t), false, t.Obj().Pkg(), m.Name())
				if fn, ok := obj.(*types.Func); ok {
					cs.fns[fn.Origin()] = true
				}
			}
		}
	}
}

// implements reports whether t or *t satisfies the interface it. The
// audit does not track the type arguments a generic interface is
// instantiated with, so t satisfies a generic one when it has a method
// of each of its names.
func implements(t *types.Named, it types.Type) bool {
	iface := it.Underlying().(*types.Interface)
	if n, ok := it.(*types.Named); ok && n.TypeParams().Len() > 0 {
		for i := 0; i < iface.NumMethods(); i++ {
			obj, _, _ := types.LookupFieldOrMethod(types.NewPointer(t), false, t.Obj().Pkg(), iface.Method(i).Name())
			if _, ok := obj.(*types.Func); !ok {
				return false
			}
		}
		return true
	}
	return types.Implements(t, iface) || types.Implements(types.NewPointer(t), iface)
}

func modulePath(gomod string) (string, error) {
	b, err := os.ReadFile(gomod)
	if err != nil {
		return "", err
	}
	for _, line := range strings.Split(string(b), "\n") {
		if rest, ok := strings.CutPrefix(strings.TrimSpace(line), "module "); ok {
			return strings.TrimSpace(rest), nil
		}
	}
	return "", errors.New("surface: no module line in " + gomod)
}

// load parses every Go package under root, skipping testdata and hidden
// directories, with the build constraints of the running platform.
func (s *surface) load(root, modPath string) error {
	return filepath.WalkDir(root, func(dir string, d fs.DirEntry, err error) error {
		if err != nil || !d.IsDir() {
			return err
		}
		if name := d.Name(); dir != root && (name == "testdata" || strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_")) {
			return filepath.SkipDir
		}
		bp, err := build.Default.ImportDir(dir, 0)
		if err != nil {
			var noGo *build.NoGoError
			if errors.As(err, &noGo) {
				return nil
			}
			return err
		}
		path := modPath
		if rel, _ := filepath.Rel(root, dir); rel != "." {
			path += "/" + filepath.ToSlash(rel)
		}
		p := &surfacePkg{}
		for _, set := range []struct {
			names []string
			into  *[]*ast.File
		}{{bp.GoFiles, &p.files}, {bp.TestGoFiles, &p.tests}, {bp.XTestGoFiles, &p.xtests}} {
			for _, name := range set.names {
				f, err := parser.ParseFile(s.fset, filepath.Join(dir, name), nil, parser.SkipObjectResolution)
				if err != nil {
					return err
				}
				*set.into = append(*set.into, f)
			}
		}
		s.pkgs[path] = p
		return nil
	})
}

// Import returns the non-test variant of a module package, checking it on
// first use; anything else comes from the standard library's sources.
func (s *surface) Import(path string) (*types.Package, error) {
	if pkg := s.checked[path]; pkg != nil {
		return pkg, nil
	}
	p := s.pkgs[path]
	if p == nil {
		return s.std.Import(path)
	}
	if err := s.check(path, p.files, ""); err != nil {
		return nil, err
	}
	return s.checked[path], nil
}

// check type-checks files as package path and marks what they reference.
// under names the package whose tests these files are: references into
// it do not count, and only its test files are walked, since its own
// code was walked as non-test code. It is empty for non-test files, whose
// every reference counts, and whose package becomes the canonical
// variant.
//
// Two kinds of reference are not callers of a name and never count: a
// method's reference to its own receiver type (its fields, its sibling
// methods, the type's name), and a blank assertion `var _ I = T{}`.
func (s *surface) check(path string, files []*ast.File, under string) error {
	info := &types.Info{Uses: map[*ast.Ident]types.Object{}, Defs: map[*ast.Ident]types.Object{}}
	if under == "" {
		info.Types = map[ast.Expr]types.TypeAndValue{}
		info.Selections = map[*ast.SelectorExpr]*types.Selection{}
	}
	pkg, err := (&types.Config{Importer: s}).Check(path, s.fset, files, info)
	if err != nil {
		return err
	}
	if under == "" {
		s.checked[path] = pkg
		s.recordFields(pkg)
	}
	for _, f := range files {
		if under != "" && !strings.HasSuffix(s.fset.File(f.Pos()).Name(), "_test.go") {
			continue
		}
		for _, decl := range f.Decls {
			var self types.Object
			if fd, ok := decl.(*ast.FuncDecl); ok && fd.Recv != nil {
				self = s.ownerOf(info.Defs[fd.Name])
			}
			for _, part := range declParts(decl, info, pkg.Name() == "main") {
				var uses []types.Object
				ast.Inspect(part.node, func(n ast.Node) bool {
					if under == "" {
						s.noteSet(info, n)
					}
					id, ok := n.(*ast.Ident)
					if !ok {
						return true
					}
					use := info.Uses[id]
					if use == nil || use.Pkg() == nil || use.Pkg().Path() == under {
						return false
					}
					uses = append(uses, use)
					s.note(s.calls, use)
					obj := s.ownerOf(use)
					if obj == nil || obj == self || obj.Pkg() == nil || obj.Pkg().Path() == under {
						return false
					}
					if obj.Parent() == obj.Pkg().Scope() {
						s.used[obj.Pkg().Path()+"."+obj.Name()] = true
					}
					return false
				})
				if under != "" || part.defs == nil {
					s.rootUses = append(s.rootUses, uses...)
					continue
				}
				for _, obj := range part.defs {
					s.decls[obj] = append(s.decls[obj], uses...)
				}
			}
		}
	}
	return nil
}

// declPart is one part of a top-level declaration that the reachability
// pass tells apart, with the objects it declares: a function or method,
// or one spec of a type, var or const group. A root declares nothing: a
// main package's main, an init, or a blank initializer `var _ = f()`.
// A blank assertion is no part at all.
type declPart struct {
	node ast.Node
	defs []types.Object
}

func declParts(decl ast.Decl, info *types.Info, mainPkg bool) []declPart {
	switch d := decl.(type) {
	case *ast.FuncDecl:
		if d.Recv == nil && (d.Name.Name == "init" || mainPkg && d.Name.Name == "main") {
			return []declPart{{node: d}}
		}
		return []declPart{{d, []types.Object{info.Defs[d.Name]}}}
	case *ast.GenDecl:
		var parts []declPart
		for _, spec := range d.Specs {
			switch sp := spec.(type) {
			case *ast.TypeSpec:
				parts = append(parts, declPart{sp, []types.Object{info.Defs[sp.Name]}})
			case *ast.ValueSpec:
				if isBlankAssertion(sp) {
					continue
				}
				part := declPart{node: sp}
				for _, name := range sp.Names {
					if name.Name != "_" {
						part.defs = append(part.defs, info.Defs[name])
					}
				}
				parts = append(parts, part)
			}
		}
		return parts
	}
	return nil
}

// noteSet records the fields a node of non-test code sets: by name in a
// keyed composite literal, every one in a positional literal, and the
// target of an assignment, an increment or an address-of.
func (s *surface) noteSet(info *types.Info, n ast.Node) {
	switch n := n.(type) {
	case *ast.CompositeLit:
		t := info.TypeOf(n)
		if t == nil {
			return
		}
		if p, ok := t.Underlying().(*types.Pointer); ok {
			t = p.Elem()
		}
		st, ok := t.Underlying().(*types.Struct)
		if !ok {
			return
		}
		for i, elt := range n.Elts {
			if kv, ok := elt.(*ast.KeyValueExpr); ok {
				if key, ok := kv.Key.(*ast.Ident); ok {
					if f, ok := info.Uses[key].(*types.Var); ok {
						s.set[f.Origin()] = true
					}
				}
				continue
			}
			s.set[st.Field(i).Origin()] = true
		}
	case *ast.AssignStmt:
		for _, lhs := range n.Lhs {
			s.noteTarget(info, lhs)
		}
	case *ast.IncDecStmt:
		s.noteTarget(info, n.X)
	case *ast.UnaryExpr:
		if n.Op == token.AND {
			s.noteTarget(info, n.X)
		}
	}
}

// noteTarget records the field an assigned, incremented or addressed
// expression selects, also when only an element of it is written.
func (s *surface) noteTarget(info *types.Info, e ast.Expr) {
	for {
		switch x := e.(type) {
		case *ast.ParenExpr:
			e = x.X
		case *ast.IndexExpr:
			e = x.X
		case *ast.SelectorExpr:
			if sel := info.Selections[x]; sel != nil && sel.Kind() == types.FieldVal {
				s.set[sel.Obj().(*types.Var).Origin()] = true
			}
			return
		default:
			return
		}
	}
}

// note records in cs a reference to use: a call if it is a method, and
// the standard-library interfaces its type names if the library
// declares it.
func (s *surface) note(cs callSet, use types.Object) {
	if fn, ok := use.(*types.Func); ok {
		cs.noteCall(fn)
	}
	if s.pkgs[use.Pkg().Path()] == nil {
		cs.noteStd(use.Type())
	}
}

// noteCall records a reference to a function. A method of an interface
// puts the interface among those whose implementations it reaches.
func (cs callSet) noteCall(fn *types.Func) {
	fn = fn.Origin()
	recv := fn.Type().(*types.Signature).Recv()
	if recv == nil {
		return
	}
	cs.fns[fn] = true
	if t := recv.Type(); types.IsInterface(t) {
		if n, ok := t.(*types.Named); ok {
			t = n.Origin()
		}
		cs.ifaces[t] = true
	}
}

// noteStd records the standard-library interfaces a referenced
// standard-library object's type names: a module value passed as one
// has its methods called by the library.
func (cs callSet) noteStd(t types.Type) {
	switch t := t.(type) {
	case *types.Named:
		if types.IsInterface(t) {
			cs.ifaces[t.Origin()] = true
		}
	case *types.Pointer:
		cs.noteStd(t.Elem())
	case *types.Slice:
		cs.noteStd(t.Elem())
	case *types.Array:
		cs.noteStd(t.Elem())
	case *types.Map:
		cs.noteStd(t.Key())
		cs.noteStd(t.Elem())
	case *types.Chan:
		cs.noteStd(t.Elem())
	case *types.Signature:
		for _, tup := range []*types.Tuple{t.Params(), t.Results()} {
			for i := 0; i < tup.Len(); i++ {
				cs.noteStd(tup.At(i).Type())
			}
		}
	}
}

// isBlankAssertion reports a `var _ T = v` declaration: a compile-time
// check that v satisfies T, which calls nothing.
func isBlankAssertion(spec *ast.ValueSpec) bool {
	if spec.Type == nil {
		return false
	}
	for _, name := range spec.Names {
		if name.Name != "_" {
			return false
		}
	}
	return true
}

// recordFields maps each field of pkg's package-level struct types to its
// type, so that a used field keeps its type in use. An alias (`X = pkg.X`)
// declares no fields of its own: a use of a field keeps the aliased type
// in use, not the alias.
func (s *surface) recordFields(pkg *types.Package) {
	for _, name := range pkg.Scope().Names() {
		tn, ok := pkg.Scope().Lookup(name).(*types.TypeName)
		if !ok || tn.IsAlias() {
			continue
		}
		if st, ok := tn.Type().Underlying().(*types.Struct); ok {
			for i := 0; i < st.NumFields(); i++ {
				s.owner[st.Field(i)] = tn
			}
		}
	}
}

// ownerOf maps a method to its receiver's named type and a field to its
// struct type; any other object stands for itself.
func (s *surface) ownerOf(obj types.Object) types.Object {
	switch o := obj.(type) {
	case *types.Func:
		recv := o.Type().(*types.Signature).Recv()
		if recv == nil {
			return o.Origin()
		}
		t := recv.Type()
		if ptr, ok := t.(*types.Pointer); ok {
			t = ptr.Elem()
		}
		if named, ok := t.(*types.Named); ok {
			return named.Origin().Obj()
		}
		return nil
	case *types.Var:
		if o.IsField() {
			return s.owner[o.Origin()]
		}
	}
	return obj
}
