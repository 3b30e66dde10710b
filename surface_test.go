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
	"testing"
)

// unusedExportsFile lists the exported package-level names that nothing
// outside their own package's tests references. TestExportedSurface
// keeps it exact, so the surface can only shrink on purpose.
const unusedExportsFile = "testdata/unused_exports.txt"

// TestExportedSurface type-checks every package in the module, with its
// tests, and lists each exported package-level name (func, type, var,
// const) that is referenced by nothing except its own package's tests:
// not by the package's own code, and not by any other package, command,
// example, benchmark or test. A method or field in use keeps its type in
// use. The list must equal the allowlist in both directions: a new
// unused export fails, and so does an allowlisted name that gained a
// caller or was deleted.
func TestExportedSurface(t *testing.T) {
	got, err := unusedExports(".")
	if err != nil {
		t.Fatal(err)
	}
	want, err := readAllowlist(unusedExportsFile)
	if err != nil {
		t.Fatal(err)
	}
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
		t.Errorf("%d exported names have no caller outside their own package's tests; "+
			"give them one, unexport or delete them:\n\t%s",
			len(added), strings.Join(added, "\n\t"))
	}
	if len(stale) > 0 {
		t.Errorf("%d names in %s now have a caller or no longer exist; remove them from it:\n\t%s",
			len(stale), unusedExportsFile, strings.Join(stale, "\n\t"))
	}
	t.Logf("%d unused exported names", len(got))
}

func readAllowlist(path string) ([]string, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	var names []string
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if line := strings.TrimSpace(sc.Text()); line != "" && !strings.HasPrefix(line, "#") {
			names = append(names, line)
		}
	}
	return names, sc.Err()
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
}

// unusedExports returns the module's unused exported names, sorted, each
// as "<import path relative to the module>.<Name>" ("drdp." for the root).
func unusedExports(root string) ([]string, error) {
	modPath, err := modulePath(filepath.Join(root, "go.mod"))
	if err != nil {
		return nil, err
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
	}
	s.std = importer.ForCompiler(s.fset, "source", nil)
	if err := s.load(root, modPath); err != nil {
		return nil, err
	}
	paths := make([]string, 0, len(s.pkgs))
	for path := range s.pkgs {
		paths = append(paths, path)
	}
	slices.Sort(paths)
	for _, path := range paths {
		p := s.pkgs[path]
		if _, err := s.Import(path); err != nil {
			return nil, err
		}
		if len(p.tests) > 0 {
			if err := s.check(path, append(slices.Clip(p.files), p.tests...), path); err != nil {
				return nil, err
			}
		}
		if len(p.xtests) > 0 {
			if err := s.check(path+"_test", p.xtests, path); err != nil {
				return nil, err
			}
		}
	}
	var unused []string
	for _, path := range paths {
		scope := s.checked[path].Scope()
		rel := strings.TrimPrefix(strings.TrimPrefix(path, modPath), "/")
		if rel == "" {
			rel = s.checked[path].Name()
		}
		for _, name := range scope.Names() {
			if token.IsExported(name) && !s.used[path+"."+name] {
				unused = append(unused, rel+"."+name)
			}
		}
	}
	return unused, nil
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
		if dir != root {
			path += "/" + filepath.ToSlash(dir)
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
func (s *surface) check(path string, files []*ast.File, under string) error {
	info := &types.Info{Uses: map[*ast.Ident]types.Object{}}
	pkg, err := (&types.Config{Importer: s}).Check(path, s.fset, files, info)
	if err != nil {
		return err
	}
	if under == "" {
		s.checked[path] = pkg
		s.recordFields(pkg)
	}
	for _, obj := range info.Uses {
		if obj = s.ownerOf(obj); obj == nil || obj.Pkg() == nil || obj.Pkg().Path() == under {
			continue
		}
		if obj.Parent() == obj.Pkg().Scope() {
			s.used[obj.Pkg().Path()+"."+obj.Name()] = true
		}
	}
	return nil
}

// recordFields maps each field of pkg's package-level struct types to its
// type, so that a used field keeps its type in use.
func (s *surface) recordFields(pkg *types.Package) {
	for _, name := range pkg.Scope().Names() {
		tn, ok := pkg.Scope().Lookup(name).(*types.TypeName)
		if !ok {
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
