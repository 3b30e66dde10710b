package drdp_test

import (
	"bufio"
	"bytes"
	"go/ast"
	"go/parser"
	"go/scanner"
	"go/token"
	"io/fs"
	"os"
	"path/filepath"
	"regexp"
	"slices"
	"strconv"
	"strings"
	"testing"

	"github.com/drdp/drdp/internal/telemetry"
)

// instrumentsFile declares the standard instrument set on
// telemetry.Default: handle variables and the label factories.
const instrumentsFile = "internal/telemetry/instruments.go"

// metricName matches a drdp metric family name, or a prefix of one
// ending in "_", inside a string literal or a document.
var metricName = regexp.MustCompile(`drdp_[a-z0-9_]*`)

// docMetricName is metricName plus the brace lists documents use for
// sibling families: drdp_store_scrub_{frames,corrupt}_total.
var docMetricName = regexp.MustCompile(`drdp_[a-z0-9_]*_\{[a-z0-9_,]+\}[a-z0-9_]*|drdp_[a-z0-9_]*`)

// TestInstrumentsHaveReaders fails for every metric family on
// telemetry.Default that nothing reads. A reader is a _test.go file
// outside internal/telemetry that names the family in a string literal
// or refers to one of its handles (telemetry.X), or a string literal
// naming the family in bench/, cmd/ or examples/. Comments are not
// readers, and there is no allowlist: an unread family gets an
// assertion in the test that provokes it, or is deleted.
func TestInstrumentsHaveReaders(t *testing.T) {
	handles, declared, err := instrumentHandles(instrumentsFile)
	if err != nil {
		t.Fatal(err)
	}
	families := allFamilies(t, declared)
	read, err := readFamilies(".", handles)
	if err != nil {
		t.Fatal(err)
	}
	var unread []string
	for _, f := range families {
		if !read[f] {
			unread = append(unread, f)
		}
	}
	if len(unread) > 0 {
		t.Errorf("%d of %d metric families have no reader (a test outside internal/telemetry "+
			"asserting on them, or a read by name in bench/, cmd/ or examples/); "+
			"assert on them where their condition is provoked, or delete them:\n\t%s",
			len(unread), len(families), strings.Join(unread, "\n\t"))
	}
	t.Logf("%d metric families, %d instrument handles", len(families), len(handles))
}

// TestDocsNameLiveMetrics fails for every drdp_* name the README, the
// design notes or the verify skill mention that no instrument registers.
// A brace list names one family per entry; a name ending in "_" is a
// prefix and must start at least one family; histogram series suffixes
// (_bucket, _sum, _count) name their family.
func TestDocsNameLiveMetrics(t *testing.T) {
	_, declared, err := instrumentHandles(instrumentsFile)
	if err != nil {
		t.Fatal(err)
	}
	families := allFamilies(t, declared)
	for _, doc := range []string{"README.md", "DESIGN.md", ".claude/skills/verify/SKILL.md"} {
		b, err := os.ReadFile(doc)
		if err != nil {
			t.Fatal(err)
		}
		for _, match := range docMetricName.FindAllString(string(b), -1) {
			for _, name := range expandBraces(match) {
				if !namesFamily(families, name) {
					t.Errorf("%s names %s, which no instrument registers", doc, name)
				}
			}
		}
	}
}

// expandBraces turns a_{b,c}_d into a_b_d and a_c_d.
func expandBraces(s string) []string {
	head, rest, ok := strings.Cut(s, "{")
	if !ok {
		return []string{s}
	}
	list, tail, _ := strings.Cut(rest, "}")
	var out []string
	for _, alt := range strings.Split(list, ",") {
		out = append(out, head+alt+tail)
	}
	return out
}

func namesFamily(families []string, name string) bool {
	if strings.HasSuffix(name, "_") {
		return slices.ContainsFunc(families, func(f string) bool { return strings.HasPrefix(f, name) })
	}
	for _, suffix := range []string{"", "_bucket", "_sum", "_count"} {
		if slices.Contains(families, strings.TrimSuffix(name, suffix)) {
			return true
		}
	}
	return false
}

// allFamilies returns, sorted, every family registered on
// telemetry.Default (read from its exposition) together with the
// declared ones, which include families the label factories register
// only on first use.
func allFamilies(t *testing.T, declared []string) []string {
	t.Helper()
	var buf bytes.Buffer
	if err := telemetry.Default.WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	families := slices.Clone(declared)
	sc := bufio.NewScanner(&buf)
	for sc.Scan() {
		if rest, ok := strings.CutPrefix(sc.Text(), "# TYPE "); ok {
			families = append(families, strings.Fields(rest)[0])
		}
	}
	slices.Sort(families)
	return slices.Compact(families)
}

// instrumentHandles parses the instrument declarations: each
// package-level variable or function in the file maps to the families
// its declaration registers by name or reaches through other handles.
// declared is every family the file registers.
func instrumentHandles(path string) (handles map[string][]string, declared []string, err error) {
	f, err := parser.ParseFile(token.NewFileSet(), path, nil, parser.SkipObjectResolution)
	if err != nil {
		return nil, nil, err
	}
	// names lists the drdp_* string literals under n; refs the
	// identifiers, for handles that delegate to other handles.
	names := func(n ast.Node) (lits, refs []string) {
		ast.Inspect(n, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.BasicLit:
				if s, err := strconv.Unquote(n.Value); err == nil && n.Kind == token.STRING && metricName.FindString(s) == s {
					lits = append(lits, s)
				}
			case *ast.Ident:
				refs = append(refs, n.Name)
			}
			return true
		})
		return lits, refs
	}
	handles = map[string][]string{}
	delegates := map[string][]string{}
	for _, decl := range f.Decls {
		switch decl := decl.(type) {
		case *ast.GenDecl:
			for _, spec := range decl.Specs {
				vs, ok := spec.(*ast.ValueSpec)
				if !ok {
					continue
				}
				for i, name := range vs.Names {
					if i < len(vs.Values) {
						lits, _ := names(vs.Values[i])
						handles[name.Name] = lits
						declared = append(declared, lits...)
					}
				}
			}
		case *ast.FuncDecl:
			if decl.Recv != nil || decl.Name.Name == "init" {
				continue
			}
			lits, refs := names(decl.Body)
			handles[decl.Name.Name] = lits
			delegates[decl.Name.Name] = refs
			declared = append(declared, lits...)
		}
	}
	for fn, refs := range delegates {
		for _, ref := range refs {
			if _, isFunc := delegates[ref]; !isFunc {
				handles[fn] = append(handles[fn], handles[ref]...)
			}
		}
	}
	return handles, declared, nil
}

// readFamilies scans the module's Go files for readers: in test files
// outside internal/telemetry, drdp_* string literals and telemetry.X
// handle references; in bench/, cmd/ and examples/, drdp_* string
// literals. This file is not a reader of anything.
func readFamilies(root string, handles map[string][]string) (map[string]bool, error) {
	read := map[string]bool{}
	self := filepath.Join(root, "instruments_test.go")
	err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if name := d.Name(); path != root && (name == "testdata" || strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_")) {
				return filepath.SkipDir
			}
			if path == filepath.Join(root, "internal", "telemetry") {
				return filepath.SkipDir
			}
			return nil
		}
		rel, _ := filepath.Rel(root, path)
		top, _, _ := strings.Cut(filepath.ToSlash(rel), "/")
		isTest := strings.HasSuffix(path, "_test.go")
		if filepath.Ext(path) != ".go" || path == self ||
			!(isTest || top == "bench" || top == "cmd" || top == "examples") {
			return nil
		}
		src, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		fset := token.NewFileSet()
		var s scanner.Scanner
		s.Init(fset.AddFile(path, -1, len(src)), src, nil, 0)
		var prev [2]string // the two tokens before the current one
		for {
			_, tok, lit := s.Scan()
			if tok == token.EOF {
				break
			}
			switch {
			case tok == token.STRING:
				if v, err := strconv.Unquote(lit); err == nil {
					for _, name := range metricName.FindAllString(v, -1) {
						read[name] = true
					}
				}
			case isTest && tok == token.IDENT && prev == [2]string{"telemetry", "."}:
				for _, name := range handles[lit] {
					read[name] = true
				}
			}
			if tok == token.PERIOD {
				lit = "."
			}
			prev = [2]string{prev[1], lit}
		}
		return nil
	})
	return read, err
}
