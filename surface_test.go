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
// that nothing outside their own package's tests calls. TestExportedSurface
// and TestExportedMembers keep it exact, so the surface can only shrink on
// purpose.
const unusedExportsFile = "testdata/unused_exports.txt"

// moduleSurface audits this module once for both tests.
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
	compareAllowlist(t, "exported names", got.names, want.names)
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
	for _, m := range want.members {
		if want.reasons[m] == "" {
			t.Errorf("%s is allowlisted in %s without a reason", m, unusedExportsFile)
		}
	}
	compareAllowlist(t, "exported methods", got.members, want.members)
}

func compareAllowlist(t *testing.T, what string, got, want []string) {
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
		t.Errorf("%d %s have no caller outside their own package's tests; "+
			"give them one, unexport or delete them:\n\t%s",
			len(added), what, strings.Join(added, "\n\t"))
	}
	if len(stale) > 0 {
		t.Errorf("%d %s in %s now have a caller or no longer exist; remove them from it:\n\t%s",
			len(stale), what, unusedExportsFile, strings.Join(stale, "\n\t"))
	}
	t.Logf("%d unused %s", len(got), what)
}

// TestUnusedExportsRules runs the audit on a fixture module
// (testdata/surface) that holds one exported name per rule, so a rule
// that stops holding fails here by name.
func TestUnusedExportsRules(t *testing.T) {
	got, err := unusedExports("testdata/surface")
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
// (called through the Via interface), Inner.Promoted (called through
// Outer, which embeds Inner), Kind.String and Kind.Is (called by fmt and
// errors), Sorted's three (called by sort) and Field.ByOtherTest (called
// by another package's tests).
func TestUnusedMembersRules(t *testing.T) {
	got, err := unusedExports("testdata/surface")
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

// allowlist is unusedExportsFile parsed: package-level names, and
// methods ("<path>.<Type>.<Method>") with the reason after their '#'.
type allowlist struct {
	names, members []string
	reasons        map[string]string
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
		switch {
		case entry == "":
		case isMember(entry):
			a.members = append(a.members, entry)
			a.reasons[entry] = strings.TrimSpace(reason)
		default:
			a.names = append(a.names, entry)
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
// exported package-level objects are referenced from where it counts.
type surface struct {
	fset    *token.FileSet
	std     types.Importer
	pkgs    map[string]*surfacePkg
	checked map[string]*types.Package // non-test variants, by import path
	owner   map[*types.Var]types.Object
	used    map[string]bool // "path.Name"
	calls   map[*types.Func]bool
	ifaces  map[types.Type]bool // whose called methods reach their implementations
}

// unused is what the audit lists, each sorted: exported package-level
// names, and exported methods as "<path>.<Type>.<Method>".
type unused struct {
	names, members []string
}

// protocolMethods are called by fmt and errors through interfaces the
// module never names.
var protocolMethods = []string{"String", "Error", "Is", "Unwrap"}

// unusedExports returns the module's unused exported names, each as
// "<import path relative to the module>.<Name>" ("drdp." for the root),
// and its unused exported methods, each as "<path>.<Type>.<Method>".
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
		calls:   map[*types.Func]bool{},
		ifaces:  map[types.Type]bool{},
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
	s.callImplementations(named)

	var u unused
	for _, path := range paths {
		scope := s.checked[path].Scope()
		rel := strings.TrimPrefix(strings.TrimPrefix(path, modPath), "/")
		if rel == "" {
			rel = s.checked[path].Name()
		}
		for _, name := range scope.Names() {
			if !token.IsExported(name) {
				continue
			}
			if !s.used[path+"."+name] {
				u.names = append(u.names, rel+"."+name)
			}
			if tn, ok := scope.Lookup(name).(*types.TypeName); ok && !tn.IsAlias() {
				for _, m := range declaredMethods(tn.Type().(*types.Named)) {
					if m.Exported() && !s.calls[m] && !slices.Contains(protocolMethods, m.Name()) {
						u.members = append(u.members, rel+"."+name+"."+m.Name())
					}
				}
			}
		}
	}
	slices.Sort(u.members)
	return u, nil
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

// callImplementations marks, for every interface whose methods are
// called, the method each module type that satisfies it runs in their
// place: the promoted one included. Every method of a standard-library
// interface counts as called, since the library calls it unseen. A
// generic interface is skipped: the audit does not track the type
// arguments of the instances its methods are called on.
func (s *surface) callImplementations(named []*types.Named) {
	for it := range s.ifaces {
		iface := it.Underlying().(*types.Interface)
		std := false
		if n, ok := it.(*types.Named); ok {
			if n.TypeParams().Len() > 0 {
				continue
			}
			std = n.Obj().Pkg() == nil || s.pkgs[n.Obj().Pkg().Path()] == nil
		}
		for _, t := range named {
			if types.IsInterface(t) || !types.Implements(t, iface) && !types.Implements(types.NewPointer(t), iface) {
				continue
			}
			for i := 0; i < iface.NumMethods(); i++ {
				m := iface.Method(i)
				if !std && !s.calls[m.Origin()] {
					continue
				}
				obj, _, _ := types.LookupFieldOrMethod(types.NewPointer(t), false, t.Obj().Pkg(), m.Name())
				if fn, ok := obj.(*types.Func); ok {
					s.calls[fn.Origin()] = true
				}
			}
		}
	}
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
// it do not count. It is empty for non-test files, whose every reference
// counts, and whose package becomes the canonical variant.
//
// Two kinds of reference are not callers and never count: a method's
// reference to its own receiver type (its fields, its sibling methods,
// the type's name), and a blank assertion `var _ I = T{}`.
func (s *surface) check(path string, files []*ast.File, under string) error {
	info := &types.Info{Uses: map[*ast.Ident]types.Object{}, Defs: map[*ast.Ident]types.Object{}}
	pkg, err := (&types.Config{Importer: s}).Check(path, s.fset, files, info)
	if err != nil {
		return err
	}
	if under == "" {
		s.checked[path] = pkg
		s.recordFields(pkg)
	}
	for _, f := range files {
		for _, decl := range f.Decls {
			var self types.Object
			if fd, ok := decl.(*ast.FuncDecl); ok && fd.Recv != nil {
				self = s.ownerOf(info.Defs[fd.Name])
			}
			ast.Inspect(decl, func(n ast.Node) bool {
				switch n := n.(type) {
				case *ast.ValueSpec:
					return !isBlankAssertion(n)
				case *ast.Ident:
					use := info.Uses[n]
					if use == nil || use.Pkg() == nil || use.Pkg().Path() == under {
						return false
					}
					if fn, ok := use.(*types.Func); ok {
						s.noteCall(fn)
					}
					if s.pkgs[use.Pkg().Path()] == nil {
						s.noteStd(use.Type())
					}
					obj := s.ownerOf(use)
					if obj == nil || obj == self || obj.Pkg() == nil || obj.Pkg().Path() == under {
						return false
					}
					if obj.Parent() == obj.Pkg().Scope() {
						s.used[obj.Pkg().Path()+"."+obj.Name()] = true
					}
				}
				return true
			})
		}
	}
	return nil
}

// noteCall records a reference to a function. A method of an interface
// puts the interface among those whose implementations it reaches.
func (s *surface) noteCall(fn *types.Func) {
	fn = fn.Origin()
	recv := fn.Type().(*types.Signature).Recv()
	if recv == nil {
		return
	}
	s.calls[fn] = true
	if t := recv.Type(); types.IsInterface(t) {
		if n, ok := t.(*types.Named); ok {
			t = n.Origin()
		}
		s.ifaces[t] = true
	}
}

// noteStd records the standard-library interfaces a referenced
// standard-library object's type names: a module value passed as one
// has its methods called by the library.
func (s *surface) noteStd(t types.Type) {
	switch t := t.(type) {
	case *types.Named:
		if types.IsInterface(t) {
			s.ifaces[t.Origin()] = true
		}
	case *types.Pointer:
		s.noteStd(t.Elem())
	case *types.Slice:
		s.noteStd(t.Elem())
	case *types.Array:
		s.noteStd(t.Elem())
	case *types.Map:
		s.noteStd(t.Key())
		s.noteStd(t.Elem())
	case *types.Chan:
		s.noteStd(t.Elem())
	case *types.Signature:
		for _, tup := range []*types.Tuple{t.Params(), t.Results()} {
			for i := 0; i < tup.Len(); i++ {
				s.noteStd(tup.At(i).Type())
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
