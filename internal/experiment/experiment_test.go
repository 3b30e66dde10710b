package experiment

import (
	"bytes"
	"math"
	"strings"
	"testing"

	"github.com/drdp/drdp/internal/model"
)

func TestTableRenderAndCSV(t *testing.T) {
	tab := &Table{Title: "T", Columns: []string{"a", "bb"}}
	tab.AddRow("1", "2")
	tab.AddRow("longer", "x")
	var buf bytes.Buffer
	if err := tab.Render(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	if !strings.Contains(out, "T\n") || !strings.Contains(out, "longer") {
		t.Errorf("render output:\n%s", out)
	}
	buf.Reset()
	if err := tab.WriteCSV(&buf); err != nil {
		t.Fatal(err)
	}
	if got := buf.String(); got != "a,bb\n1,2\nlonger,x\n" {
		t.Errorf("csv output %q", got)
	}
}

func TestTableCSVEscaping(t *testing.T) {
	tab := &Table{Columns: []string{"a"}}
	tab.AddRow(`va"l,ue`)
	var buf bytes.Buffer
	if err := tab.WriteCSV(&buf); err != nil {
		t.Fatal(err)
	}
	if got := buf.String(); !strings.Contains(got, `"va""l,ue"`) {
		t.Errorf("escaping failed: %q", got)
	}
}

func TestTableAddRowPanics(t *testing.T) {
	tab := &Table{Columns: []string{"a", "b"}}
	defer func() {
		if recover() == nil {
			t.Fatal("short row accepted")
		}
	}()
	tab.AddRow("only-one")
}

func TestSeries(t *testing.T) {
	s := &Series{Title: "fig", XLabel: "rho", X: []float64{0.1, 0.2}}
	s.Add("drdp", []float64{0.9, 0.85})
	s.Add("erm", []float64{0.8, 0.7})
	var buf bytes.Buffer
	if err := s.Render(&buf); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "drdp") {
		t.Errorf("series render: %s", buf.String())
	}
	defer func() {
		if recover() == nil {
			t.Fatal("mismatched series length accepted")
		}
	}()
	s.Add("bad", []float64{1})
}

func TestAggregate(t *testing.T) {
	ms := Aggregate([]float64{2, 4, 4, 4, 5, 5, 7, 9})
	if math.Abs(ms.Mean-5) > 1e-12 {
		t.Errorf("mean %v", ms.Mean)
	}
	// Sample std with n-1: sqrt(32/7).
	if math.Abs(ms.Std-math.Sqrt(32.0/7)) > 1e-12 {
		t.Errorf("std %v", ms.Std)
	}
	if ms.N != 8 {
		t.Errorf("n %d", ms.N)
	}
	empty := Aggregate(nil)
	if empty.Mean != 0 || empty.Std != 0 || empty.N != 0 {
		t.Errorf("empty aggregate %+v", empty)
	}
	one := Aggregate([]float64{3})
	if one.Std != 0 {
		t.Errorf("single-sample std %v", one.Std)
	}
	if s := ms.String(); !strings.Contains(s, "±") {
		t.Errorf("MeanStd string %q", s)
	}
}

func TestRepeatAndSeeds(t *testing.T) {
	seeds := Seeds(10, 4)
	if len(seeds) != 4 || seeds[0] != 10 || seeds[1] == seeds[0] {
		t.Errorf("seeds %v", seeds)
	}
}

func TestScenarioBuildAndMethods(t *testing.T) {
	if testing.Short() {
		t.Skip("scenario build trains the cloud; skip in -short")
	}
	s := Defaults(77)
	s.Dim = 6
	s.CloudTasks = 4
	s.CloudSamples = 150
	b, err := s.Build()
	if err != nil {
		t.Fatal(err)
	}
	if len(b.CloudParams) != 4 || len(b.Posteriors) != 4 {
		t.Fatalf("cloud size wrong: %d params, %d posteriors",
			len(b.CloudParams), len(b.Posteriors))
	}
	if err := b.Prior.Validate(); err != nil {
		t.Fatalf("scenario prior invalid: %v", err)
	}
	if b.Prior.Dim != 7 { // 6 weights + bias
		t.Errorf("prior dim %d, want 7", b.Prior.Dim)
	}
	// Cloud tasks must actually be good at their own job: check the first
	// cloud model classifies a fresh draw of its own task well. (Cluster
	// structure guarantees relatedness, not identity, so use cloud task 0
	// directly.)
	train, test := b.EdgeData(50, 400)
	if train.Len() != 50 || test.Len() != 400 {
		t.Errorf("edge data sizes %d/%d", train.Len(), test.Len())
	}

	methods := b.Methods(0.1, 0)
	if len(methods) != 7 {
		t.Fatalf("expected 7 methods, got %d", len(methods))
	}
	names := map[string]bool{}
	for _, tr := range methods {
		if names[tr.Name()] {
			t.Errorf("duplicate method name %s", tr.Name())
		}
		names[tr.Name()] = true
		params, err := tr.Train(train.X, train.Y)
		if err != nil {
			t.Fatalf("%s: %v", tr.Name(), err)
		}
		acc := model.Accuracy(b.Model, params, test.X, test.Y)
		if acc < 0.5 {
			t.Errorf("%s: test accuracy %v below chance", tr.Name(), acc)
		}
	}
	if !names["drdp"] {
		t.Error("drdp missing from method lineup")
	}
}

func TestScenarioInvalid(t *testing.T) {
	if _, err := (Scenario{}).Build(); err == nil {
		t.Error("zero scenario accepted")
	}
}
