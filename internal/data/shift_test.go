package data

import (
	"math"
	"math/rand"
	"testing"

	"github.com/drdp/drdp/internal/mat"
)

func TestCovariateShift(t *testing.T) {
	d := binaryDS()
	shifted, err := CovariateShift(d, mat.Vec{10, -10})
	if err != nil {
		t.Fatal(err)
	}
	if shifted.X.At(0, 0) != 11 || shifted.X.At(0, 1) != -8 {
		t.Errorf("shift wrong: %v", shifted.X.Row(0))
	}
	// Original untouched.
	if d.X.At(0, 0) != 1 {
		t.Error("CovariateShift mutated input")
	}
	if _, err := CovariateShift(d, mat.Vec{1}); err == nil {
		t.Error("wrong delta dim accepted")
	}
}

func TestUniformShiftMagnitude(t *testing.T) {
	d := binaryDS()
	shifted := UniformShift(d, 3)
	moved := mat.SubVec(shifted.X.Row(0), d.X.Row(0))
	if math.Abs(mat.Norm2(moved)-3) > 1e-9 {
		t.Errorf("shift magnitude %v, want 3", mat.Norm2(moved))
	}
}

func TestAdversarialShiftIncreasesLoss(t *testing.T) {
	rng := rand.New(rand.NewSource(92))
	task := LinearTask{W: mat.Vec{2, -1}}
	d := task.Sample(rng, 200)
	w := mat.Vec{2, -1}
	adv, err := AdversarialShift(d, w, 1.0)
	if err != nil {
		t.Fatal(err)
	}
	// Margins y·wᵀx must all decrease by exactly budget·‖w‖... per unit:
	// y wᵀ(x − y·budget·w/‖w‖) = y wᵀx − budget‖w‖.
	for i := 0; i < d.Len(); i++ {
		before := d.Y[i] * mat.Dot(w, d.X.Row(i))
		after := adv.Y[i] * mat.Dot(w, adv.X.Row(i))
		if math.Abs((before-after)-mat.Norm2(w)) > 1e-9 {
			t.Fatalf("margin drop %v, want %v", before-after, mat.Norm2(w))
		}
	}
	// Zero scorer: identity.
	same, err := AdversarialShift(d, mat.Vec{0, 0}, 1)
	if err != nil {
		t.Fatal(err)
	}
	if !same.X.Equal(d.X, 0) {
		t.Error("zero-w shift changed data")
	}
	if _, err := AdversarialShift(d, mat.Vec{1}, 1); err == nil {
		t.Error("wrong dim accepted")
	}
}

func TestAdversarialShiftLInf(t *testing.T) {
	rng := rand.New(rand.NewSource(96))
	task := LinearTask{W: mat.Vec{2, -1, 0}}
	d := task.Sample(rng, 100)
	adv, err := AdversarialShiftLInf(d, task.W, 0.5)
	if err != nil {
		t.Fatal(err)
	}
	// Margin must drop by exactly budget·‖w‖₁ = 0.5·3 = 1.5 per sample;
	// zero-weight coordinates stay untouched.
	for i := 0; i < d.Len(); i++ {
		before := d.Y[i] * mat.Dot(task.W, d.X.Row(i))
		after := adv.Y[i] * mat.Dot(task.W, adv.X.Row(i))
		if math.Abs((before-after)-1.5) > 1e-9 {
			t.Fatalf("margin drop %v, want 1.5", before-after)
		}
		if adv.X.At(i, 2) != d.X.At(i, 2) {
			t.Fatal("zero-weight coordinate moved")
		}
	}
	if _, err := AdversarialShiftLInf(d, mat.Vec{1}, 0.5); err == nil {
		t.Error("wrong dim accepted")
	}
	mc := &Dataset{X: mat.NewDense(1, 3), Y: []float64{0}, NumClasses: 3}
	if _, err := AdversarialShiftLInf(mc, task.W, 0.5); err == nil {
		t.Error("multiclass accepted")
	}
}

func TestDirichletPartition(t *testing.T) {
	rng := rand.New(rand.NewSource(93))
	b, err := NewBlobTask(rng, 2, 4, 5, 0.5)
	if err != nil {
		t.Fatal(err)
	}
	ds := b.Sample(rng, 400)

	parts, err := DirichletPartition(ds, 8, 0.3, rng)
	if err != nil {
		t.Fatal(err)
	}
	if len(parts) != 8 {
		t.Fatalf("got %d parts", len(parts))
	}
	var total int
	for p, part := range parts {
		if part.Len() == 0 {
			t.Errorf("device %d empty", p)
		}
		total += part.Len()
	}
	if total != 400 {
		t.Errorf("partition lost samples: %d/400", total)
	}

	// Non-IID check: with alpha=0.3 at least one device should have a
	// very skewed class mix (dominant class > 50%), while with alpha=100
	// all devices should be near-balanced (dominant class < 45%).
	skewed := false
	for _, part := range parts {
		counts := part.ClassCounts()
		max := 0
		for _, c := range counts {
			if c > max {
				max = c
			}
		}
		if float64(max)/float64(part.Len()) > 0.5 {
			skewed = true
		}
	}
	if !skewed {
		t.Error("alpha=0.3 produced no skewed device")
	}

	iid, err := DirichletPartition(ds, 4, 100, rng)
	if err != nil {
		t.Fatal(err)
	}
	for p, part := range iid {
		counts := part.ClassCounts()
		max := 0
		for _, c := range counts {
			if c > max {
				max = c
			}
		}
		if frac := float64(max) / float64(part.Len()); frac > 0.45 {
			t.Errorf("alpha=100 device %d dominant class fraction %v", p, frac)
		}
	}

	if _, err := DirichletPartition(ds, 0, 1, rng); err == nil {
		t.Error("parts=0 accepted")
	}
	if _, err := DirichletPartition(ds, 2, 0, rng); err == nil {
		t.Error("alpha=0 accepted")
	}
}

func TestApportion(t *testing.T) {
	counts := apportion([]float64{0.5, 0.3, 0.2}, 10)
	if counts[0]+counts[1]+counts[2] != 10 {
		t.Errorf("apportion total %v", counts)
	}
	if counts[0] != 5 || counts[1] != 3 || counts[2] != 2 {
		t.Errorf("apportion %v", counts)
	}
	// Remainders: 1/3 each over 10 → 4/3/3 in some order, total 10.
	counts = apportion([]float64{1.0 / 3, 1.0 / 3, 1.0 / 3}, 10)
	sum := counts[0] + counts[1] + counts[2]
	if sum != 10 {
		t.Errorf("apportion total %d", sum)
	}
}

func TestDigits(t *testing.T) {
	rng := rand.New(rand.NewSource(94))
	task := DigitTask{Noise: 0.2, Jitter: true}
	ds := task.SamplePerClass(rng, 5)
	if ds.Len() != 50 || ds.Dim() != DigitDim || ds.NumClasses != 10 {
		t.Fatalf("digits shape: n=%d d=%d c=%d", ds.Len(), ds.Dim(), ds.NumClasses)
	}
	if err := ds.Validate(); err != nil {
		t.Fatal(err)
	}
	counts := ds.ClassCounts()
	for c := 0; c < 10; c++ {
		if counts[c] != 5 {
			t.Errorf("class %d count %d", c, counts[c])
		}
	}
	// Templates must be pairwise distinct.
	for a := 0; a < 10; a++ {
		for b := a + 1; b < 10; b++ {
			if mat.Dist2(task.Template(a), task.Template(b)) < 1 {
				t.Errorf("templates %d and %d nearly identical", a, b)
			}
		}
	}
}

func TestDigitsClassesAreLearnable(t *testing.T) {
	// Clean templates must be nearest-template classifiable even with
	// moderate noise — otherwise the benchmark task is degenerate.
	rng := rand.New(rand.NewSource(95))
	task := DigitTask{Noise: 0.3}
	var correct, total int
	for trial := 0; trial < 200; trial++ {
		d := trial % 10
		img := task.SampleOne(rng, d)
		best, bestDist := -1, math.Inf(1)
		for c := 0; c < 10; c++ {
			if dist := mat.Dist2(img, task.Template(c)); dist < bestDist {
				best, bestDist = c, dist
			}
		}
		if best == d {
			correct++
		}
		total++
	}
	if acc := float64(correct) / float64(total); acc < 0.95 {
		t.Errorf("nearest-template accuracy %v at noise 0.3", acc)
	}
}

func TestShiftImage(t *testing.T) {
	img := make(mat.Vec, DigitDim)
	img[0] = 1 // top-left pixel
	right := shiftImage(img, 1, 0)
	if right[1] != 1 || right[0] != 0 {
		t.Error("shift right failed")
	}
	down := shiftImage(img, 0, 1)
	if down[DigitSize] != 1 {
		t.Error("shift down failed")
	}
	// Shifting off the edge zero-fills.
	gone := shiftImage(img, -1, 0)
	if mat.Sum(gone) != 0 {
		t.Error("off-edge shift should drop the pixel")
	}
}

func TestRenderASCII(t *testing.T) {
	task := DigitTask{}
	art := RenderASCII(task.Template(1))
	if len(art) != DigitDim+DigitSize { // 64 cells + 8 newlines
		t.Errorf("ASCII length %d", len(art))
	}
	// Mid-intensity glyph branches.
	img := make(mat.Vec, DigitDim)
	img[0], img[1], img[2] = 0.5, 0.2, 0.05
	art = RenderASCII(img)
	if art[0] != '+' || art[1] != '.' || art[2] != ' ' {
		t.Errorf("glyphs %q", art[:3])
	}
	for name, fn := range map[string]func(){
		"render": func() { RenderASCII(mat.Vec{1}) },
		"digit":  func() { task.Template(10) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s out of range did not panic", name)
				}
			}()
			fn()
		}()
	}
}
