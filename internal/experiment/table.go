// Package experiment is the harness that regenerates every table and
// figure in EXPERIMENTS.md: the canonical cloud+edge scenario builder,
// seeded repetition with mean±std aggregation, and ASCII/CSV emitters for
// tables (rows of labelled cells) and series (figure data).
package experiment

import (
	"fmt"
	"io"
	"math"
	"strings"
)

// Table is a rows×columns result grid with a title and column headers.
type Table struct {
	Title   string
	Columns []string
	Rows    [][]string
}

// AddRow appends a row, which must match the column count.
func (t *Table) AddRow(cells ...string) {
	if len(cells) != len(t.Columns) {
		panic(fmt.Sprintf("experiment: row has %d cells, want %d", len(cells), len(t.Columns)))
	}
	t.Rows = append(t.Rows, cells)
}

// Render writes the table as aligned ASCII.
func (t *Table) Render(w io.Writer) error {
	widths := make([]int, len(t.Columns))
	for i, c := range t.Columns {
		widths[i] = len(c)
	}
	for _, row := range t.Rows {
		for i, cell := range row {
			if len(cell) > widths[i] {
				widths[i] = len(cell)
			}
		}
	}
	var b strings.Builder
	if t.Title != "" {
		b.WriteString(t.Title)
		b.WriteByte('\n')
	}
	writeRow := func(cells []string) {
		for i, cell := range cells {
			if i > 0 {
				b.WriteString("  ")
			}
			b.WriteString(cell)
			for pad := len(cell); pad < widths[i]; pad++ {
				b.WriteByte(' ')
			}
		}
		b.WriteByte('\n')
	}
	writeRow(t.Columns)
	for i, wd := range widths {
		if i > 0 {
			b.WriteString("  ")
		}
		b.WriteString(strings.Repeat("-", wd))
	}
	b.WriteByte('\n')
	for _, row := range t.Rows {
		writeRow(row)
	}
	_, err := io.WriteString(w, b.String())
	return err
}

// WriteCSV writes the table as CSV (header row first).
func (t *Table) WriteCSV(w io.Writer) error {
	esc := func(s string) string {
		if strings.ContainsAny(s, ",\"\n") {
			return `"` + strings.ReplaceAll(s, `"`, `""`) + `"`
		}
		return s
	}
	var b strings.Builder
	for i, c := range t.Columns {
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString(esc(c))
	}
	b.WriteByte('\n')
	for _, row := range t.Rows {
		for i, cell := range row {
			if i > 0 {
				b.WriteByte(',')
			}
			b.WriteString(esc(cell))
		}
		b.WriteByte('\n')
	}
	_, err := io.WriteString(w, b.String())
	return err
}

// Series is figure data: one x axis and any number of named y series.
type Series struct {
	Title  string
	XLabel string
	X      []float64
	Names  []string
	Y      [][]float64 // Y[s][i] pairs with X[i]
}

// Add appends one named series; its length must match X.
func (s *Series) Add(name string, ys []float64) {
	if len(ys) != len(s.X) {
		panic(fmt.Sprintf("experiment: series %q has %d points, want %d", name, len(ys), len(s.X)))
	}
	s.Names = append(s.Names, name)
	s.Y = append(s.Y, ys)
}

// Table converts the series to a Table for rendering.
func (s *Series) Table() *Table {
	t := &Table{Title: s.Title, Columns: append([]string{s.XLabel}, s.Names...)}
	for i, x := range s.X {
		row := []string{fmt.Sprintf("%g", x)}
		for _, ys := range s.Y {
			row = append(row, fmt.Sprintf("%.4f", ys[i]))
		}
		t.AddRow(row...)
	}
	return t
}

// Render writes the series as an aligned ASCII table.
func (s *Series) Render(w io.Writer) error { return s.Table().Render(w) }

// MeanStd is an aggregated measurement over repetitions.
type MeanStd struct {
	Mean, Std float64
	N         int
}

// String formats as "mean±std".
func (m MeanStd) String() string {
	return fmt.Sprintf("%.4f±%.4f", m.Mean, m.Std)
}

// Aggregate computes MeanStd over xs.
func Aggregate(xs []float64) MeanStd {
	n := len(xs)
	if n == 0 {
		return MeanStd{}
	}
	var sum float64
	for _, v := range xs {
		sum += v
	}
	mean := sum / float64(n)
	var ss float64
	for _, v := range xs {
		d := v - mean
		ss += d * d
	}
	std := 0.0
	if n > 1 {
		std = sqrt(ss / float64(n-1))
	}
	return MeanStd{Mean: mean, Std: std, N: n}
}

// Seeds returns n deterministic seeds derived from base.
func Seeds(base int64, n int) []int64 {
	out := make([]int64, n)
	for i := range out {
		out[i] = base + int64(i)*1_000_003
	}
	return out
}

func sqrt(x float64) float64 {
	if x <= 0 {
		return 0
	}
	return math.Sqrt(x)
}
