package mat

import (
	"fmt"
	"math"
)

// Dense is a row-major dense matrix.
type Dense struct {
	Rows, Cols int
	Data       []float64 // len == Rows*Cols, row-major
}

// NewDense returns a zeroed r-by-c matrix.
func NewDense(r, c int) *Dense {
	if r < 0 || c < 0 {
		panic(fmt.Sprintf("mat: NewDense: negative dimension %dx%d", r, c))
	}
	return &Dense{Rows: r, Cols: c, Data: make([]float64, r*c)}
}

// FromRows builds a matrix from row slices, which must share a length.
func FromRows(rows [][]float64) *Dense {
	r := len(rows)
	if r == 0 {
		return NewDense(0, 0)
	}
	c := len(rows[0])
	m := NewDense(r, c)
	for i, row := range rows {
		if len(row) != c {
			panic(fmt.Sprintf("mat: FromRows: row %d has length %d, want %d", i, len(row), c))
		}
		copy(m.Data[i*c:(i+1)*c], row)
	}
	return m
}

// Eye returns the n-by-n identity matrix.
func Eye(n int) *Dense {
	m := NewDense(n, n)
	for i := 0; i < n; i++ {
		m.Data[i*n+i] = 1
	}
	return m
}

// Diag returns a square matrix with d on the diagonal.
func Diag(d Vec) *Dense {
	n := len(d)
	m := NewDense(n, n)
	for i, v := range d {
		m.Data[i*n+i] = v
	}
	return m
}

// At returns the (i,j) entry.
func (m *Dense) At(i, j int) float64 {
	m.checkIndex(i, j)
	return m.Data[i*m.Cols+j]
}

// Set assigns the (i,j) entry.
func (m *Dense) Set(i, j int, v float64) {
	m.checkIndex(i, j)
	m.Data[i*m.Cols+j] = v
}

// Row returns row i as a slice aliasing the matrix storage.
func (m *Dense) Row(i int) Vec {
	if i < 0 || i >= m.Rows {
		panic(fmt.Sprintf("mat: Row: index %d out of range [0,%d)", i, m.Rows))
	}
	return m.Data[i*m.Cols : (i+1)*m.Cols]
}

// RowSlice returns rows [from, to) as a matrix view aliasing the
// storage of m — the chunk shape the parallel evaluation layer feeds to
// per-sample kernels. Mutating the view mutates m.
func (m *Dense) RowSlice(from, to int) *Dense {
	if from < 0 || to < from || to > m.Rows {
		panic(fmt.Sprintf("mat: RowSlice: range [%d,%d) out of [0,%d)", from, to, m.Rows))
	}
	return &Dense{Rows: to - from, Cols: m.Cols, Data: m.Data[from*m.Cols : to*m.Cols]}
}

// Col returns column j as a fresh slice.
func (m *Dense) Col(j int) Vec {
	if j < 0 || j >= m.Cols {
		panic(fmt.Sprintf("mat: Col: index %d out of range [0,%d)", j, m.Cols))
	}
	out := make(Vec, m.Rows)
	for i := 0; i < m.Rows; i++ {
		out[i] = m.Data[i*m.Cols+j]
	}
	return out
}

// Clone returns a deep copy of m.
func (m *Dense) Clone() *Dense {
	n := NewDense(m.Rows, m.Cols)
	copy(n.Data, m.Data)
	return n
}

// T returns the transpose of m as a new matrix.
func (m *Dense) T() *Dense {
	t := NewDense(m.Cols, m.Rows)
	for i := 0; i < m.Rows; i++ {
		for j := 0; j < m.Cols; j++ {
			t.Data[j*t.Cols+i] = m.Data[i*m.Cols+j]
		}
	}
	return t
}

// MulVec returns m*x as a new vector (gemv).
func (m *Dense) MulVec(x Vec) Vec {
	return m.MulVecTo(make(Vec, m.Rows), x)
}

// MulVecTo writes m*x into y, which must not alias x, and returns it.
func (m *Dense) MulVecTo(y, x Vec) Vec {
	if len(x) != m.Cols || len(y) != m.Rows {
		panic(fmt.Sprintf("mat: MulVec: %dx%d matrix times length %d into length %d", m.Rows, m.Cols, len(x), len(y)))
	}
	for i := 0; i < m.Rows; i++ {
		row := m.Data[i*m.Cols : (i+1)*m.Cols]
		var s float64
		for j, v := range row {
			s += v * x[j]
		}
		y[i] = s
	}
	return y
}

// MulVecT returns mᵀ*x as a new vector.
func (m *Dense) MulVecT(x Vec) Vec {
	if len(x) != m.Rows {
		panic(fmt.Sprintf("mat: MulVecT: vector length %d, want %d", len(x), m.Rows))
	}
	y := make(Vec, m.Cols)
	for i := 0; i < m.Rows; i++ {
		xi := x[i]
		if xi == 0 {
			continue
		}
		row := m.Data[i*m.Cols : (i+1)*m.Cols]
		for j, v := range row {
			y[j] += xi * v
		}
	}
	return y
}

// Mul returns m*b as a new matrix (gemm, ikj loop order).
func (m *Dense) Mul(b *Dense) *Dense {
	if m.Cols != b.Rows {
		panic(fmt.Sprintf("mat: Mul: inner dimensions %d != %d", m.Cols, b.Rows))
	}
	out := NewDense(m.Rows, b.Cols)
	for i := 0; i < m.Rows; i++ {
		orow := out.Data[i*out.Cols : (i+1)*out.Cols]
		for k := 0; k < m.Cols; k++ {
			a := m.Data[i*m.Cols+k]
			if a == 0 {
				continue
			}
			brow := b.Data[k*b.Cols : (k+1)*b.Cols]
			for j, v := range brow {
				orow[j] += a * v
			}
		}
	}
	return out
}

// Add returns m + b as a new matrix.
func (m *Dense) Add(b *Dense) *Dense {
	m.checkSameShape("Add", b)
	out := NewDense(m.Rows, m.Cols)
	for i, v := range m.Data {
		out.Data[i] = v + b.Data[i]
	}
	return out
}

// Sub returns m - b as a new matrix.
func (m *Dense) Sub(b *Dense) *Dense {
	m.checkSameShape("Sub", b)
	out := NewDense(m.Rows, m.Cols)
	for i, v := range m.Data {
		out.Data[i] = v - b.Data[i]
	}
	return out
}

// ScaleBy multiplies every entry of m by a, in place.
func (m *Dense) ScaleBy(a float64) {
	for i := range m.Data {
		m.Data[i] *= a
	}
}

// AddScaled computes m += a*b in place.
func (m *Dense) AddScaled(a float64, b *Dense) {
	m.checkSameShape("AddScaled", b)
	for i, v := range b.Data {
		m.Data[i] += a * v
	}
}

// OuterAdd computes m += a * x yᵀ in place (rank-1 update).
func (m *Dense) OuterAdd(a float64, x, y Vec) {
	if len(x) != m.Rows || len(y) != m.Cols {
		panic(fmt.Sprintf("mat: OuterAdd: got %dx%d update for %dx%d matrix",
			len(x), len(y), m.Rows, m.Cols))
	}
	for i, xi := range x {
		s := a * xi
		if s == 0 {
			continue
		}
		row := m.Data[i*m.Cols : (i+1)*m.Cols]
		for j, yj := range y {
			row[j] += s * yj
		}
	}
}

// QuadForm returns xᵀ m x for square m.
func (m *Dense) QuadForm(x Vec) float64 {
	m.checkSquare("QuadForm")
	return Dot(x, m.MulVec(x))
}

// Trace returns the trace of square m.
func (m *Dense) Trace() float64 {
	m.checkSquare("Trace")
	var s float64
	for i := 0; i < m.Rows; i++ {
		s += m.Data[i*m.Cols+i]
	}
	return s
}

// MaxAbs returns the largest absolute entry of m (0 for an empty matrix).
func (m *Dense) MaxAbs() float64 {
	var best float64
	for _, v := range m.Data {
		if a := math.Abs(v); a > best {
			best = a
		}
	}
	return best
}

// Symmetrize overwrites m with (m + mᵀ)/2 for square m, removing the
// round-off asymmetry that accumulates in covariance updates.
func (m *Dense) Symmetrize() {
	m.checkSquare("Symmetrize")
	n := m.Rows
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			v := (m.Data[i*n+j] + m.Data[j*n+i]) / 2
			m.Data[i*n+j] = v
			m.Data[j*n+i] = v
		}
	}
}

// Equal reports whether m and b have the same shape and entries within tol.
func (m *Dense) Equal(b *Dense, tol float64) bool {
	if m.Rows != b.Rows || m.Cols != b.Cols {
		return false
	}
	for i, v := range m.Data {
		if math.Abs(v-b.Data[i]) > tol {
			return false
		}
	}
	return true
}

func (m *Dense) checkIndex(i, j int) {
	if i < 0 || i >= m.Rows || j < 0 || j >= m.Cols {
		panic(fmt.Sprintf("mat: index (%d,%d) out of range %dx%d", i, j, m.Rows, m.Cols))
	}
}

func (m *Dense) checkSquare(op string) {
	if m.Rows != m.Cols {
		panic(fmt.Sprintf("mat: %s: matrix is %dx%d, want square", op, m.Rows, m.Cols))
	}
}

func (m *Dense) checkSameShape(op string, b *Dense) {
	if m.Rows != b.Rows || m.Cols != b.Cols {
		panic(fmt.Sprintf("mat: %s: shape mismatch %dx%d vs %dx%d",
			op, m.Rows, m.Cols, b.Rows, b.Cols))
	}
}
