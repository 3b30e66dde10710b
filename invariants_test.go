package drdp_test

import (
	"go/ast"
	"go/parser"
	"go/token"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

// invariantTest matches a test named in INVARIANTS.md:
// `<package dir>.<Test>`.
var invariantTest = regexp.MustCompile("`([a-z0-9_/]+)\\.(Test\\w+)`")

// TestInvariantsNameLiveTests fails for every test INVARIANTS.md names
// that its package no longer declares, and for an invariant line that
// names no test.
func TestInvariantsNameLiveTests(t *testing.T) {
	b, err := os.ReadFile("INVARIANTS.md")
	if err != nil {
		t.Fatal(err)
	}
	declared := map[string]map[string]bool{}
	for _, line := range strings.Split(string(b), "\n") {
		if !strings.HasPrefix(line, "- ") {
			continue
		}
		matches := invariantTest.FindAllStringSubmatch(line, -1)
		if len(matches) == 0 {
			t.Errorf("INVARIANTS.md states an invariant that names no test: %s", line)
		}
		for _, m := range matches {
			dir, name := m[1], m[2]
			if declared[dir] == nil {
				if declared[dir], err = testFuncs(dir); err != nil {
					t.Fatal(err)
				}
			}
			if !declared[dir][name] {
				t.Errorf("INVARIANTS.md names %s.%s, which %s does not declare", dir, name, dir)
			}
		}
	}
}

// testFuncs returns the top-level functions the test files in dir declare.
func testFuncs(dir string) (map[string]bool, error) {
	files, err := filepath.Glob(filepath.Join(dir, "*_test.go"))
	if err != nil {
		return nil, err
	}
	funcs := map[string]bool{}
	fset := token.NewFileSet()
	for _, file := range files {
		f, err := parser.ParseFile(fset, file, nil, parser.SkipObjectResolution)
		if err != nil {
			return nil, err
		}
		for _, decl := range f.Decls {
			if fd, ok := decl.(*ast.FuncDecl); ok && fd.Recv == nil {
				funcs[fd.Name.Name] = true
			}
		}
	}
	return funcs, nil
}
