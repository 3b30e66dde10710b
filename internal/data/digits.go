package data

import (
	"fmt"
	"math/rand"

	"github.com/drdp/drdp/internal/mat"
)

// digitTemplates are 8×8 stroke bitmaps for the ten digit classes: the
// parametric stand-in for an MNIST-style vision-at-the-edge corpus. Each
// sample is a template under random intensity scaling, per-pixel Gaussian
// noise and a random ±1-pixel translation, which preserves the properties
// the evaluation needs: classes that overlap under noise, within-class
// variation, and a controllable difficulty dial.
var digitTemplates = [10]string{
	`
..####..
.#....#.
.#....#.
.#....#.
.#....#.
.#....#.
.#....#.
..####..`,
	`
...##...
..###...
...##...
...##...
...##...
...##...
...##...
..####..`,
	`
..####..
.#....#.
......#.
.....#..
....#...
...#....
..#.....
.######.`,
	`
..####..
.#....#.
......#.
...###..
......#.
......#.
.#....#.
..####..`,
	`
....##..
...#.#..
..#..#..
.#...#..
.######.
.....#..
.....#..
.....#..`,
	`
.######.
.#......
.#......
.#####..
......#.
......#.
.#....#.
..####..`,
	`
..####..
.#......
.#......
.#####..
.#....#.
.#....#.
.#....#.
..####..`,
	`
.######.
......#.
.....#..
....#...
....#...
...#....
...#....
...#....`,
	`
..####..
.#....#.
.#....#.
..####..
.#....#.
.#....#.
.#....#.
..####..`,
	`
..####..
.#....#.
.#....#.
..#####.
......#.
......#.
......#.
..####..`,
}

// DigitSize is the side length of the synthetic digit grid.
const DigitSize = 8

// DigitDim is the flattened feature dimensionality of a digit sample.
const DigitDim = DigitSize * DigitSize

// DigitTask generates synthetic stroke-digit images.
type DigitTask struct {
	// Noise is the per-pixel Gaussian noise std (typical: 0.2–0.6).
	Noise float64
	// Jitter enables the random ±1-pixel translation.
	Jitter bool
}

// parseTemplate converts a bitmap string into a flat 64-vector of 0/1.
func parseTemplate(s string) mat.Vec {
	out := make(mat.Vec, 0, DigitDim)
	for _, r := range s {
		switch r {
		case '#':
			out = append(out, 1)
		case '.':
			out = append(out, 0)
		}
	}
	if len(out) != DigitDim {
		panic(fmt.Sprintf("data: digit template has %d cells, want %d", len(out), DigitDim))
	}
	return out
}

var parsedDigits = func() [10]mat.Vec {
	var out [10]mat.Vec
	for i, s := range digitTemplates {
		out[i] = parseTemplate(s)
	}
	return out
}()

// Template returns a copy of the clean bitmap for digit d.
func (t DigitTask) Template(d int) mat.Vec {
	if d < 0 || d > 9 {
		panic(fmt.Sprintf("data: digit %d out of range", d))
	}
	return mat.CloneVec(parsedDigits[d])
}

// SampleOne draws one image of digit d.
func (t DigitTask) SampleOne(rng *rand.Rand, d int) mat.Vec {
	img := t.Template(d)
	// The stroke intensity is uniform on [0.8, 1.2); the width is hi − lo
	// in float64, not the constant 0.4, which has other bits.
	lo := 0.8
	hi := lo + 0.4
	intensity := lo + (hi-lo)*rng.Float64()
	mat.Scale(intensity, img)
	if t.Jitter {
		img = shiftImage(img, rng.Intn(3)-1, rng.Intn(3)-1)
	}
	for i := range img {
		img[i] += t.Noise * rng.NormFloat64()
	}
	return img
}

// Sample draws n samples with balanced classes, shuffled.
func (t DigitTask) Sample(rng *rand.Rand, n int) *Dataset {
	x := mat.NewDense(n, DigitDim)
	y := make([]float64, n)
	for i := 0; i < n; i++ {
		d := i % 10
		y[i] = float64(d)
		copy(x.Row(i), t.SampleOne(rng, d))
	}
	ds := &Dataset{X: x, Y: y, NumClasses: 10}
	ds.Shuffle(rng)
	return ds
}

// SamplePerClass draws exactly perClass samples of each digit, shuffled.
func (t DigitTask) SamplePerClass(rng *rand.Rand, perClass int) *Dataset {
	return t.Sample(rng, perClass*10)
}

// shiftImage translates the 8×8 image by (dx, dy), zero-filling.
func shiftImage(img mat.Vec, dx, dy int) mat.Vec {
	out := make(mat.Vec, DigitDim)
	for r := 0; r < DigitSize; r++ {
		for c := 0; c < DigitSize; c++ {
			sr, sc := r-dy, c-dx
			if sr < 0 || sr >= DigitSize || sc < 0 || sc >= DigitSize {
				continue
			}
			out[r*DigitSize+c] = img[sr*DigitSize+sc]
		}
	}
	return out
}

// RenderASCII draws a sample as ASCII art for examples and debugging.
func RenderASCII(img mat.Vec) string {
	if len(img) != DigitDim {
		panic(fmt.Sprintf("data: RenderASCII: length %d, want %d", len(img), DigitDim))
	}
	buf := make([]byte, 0, DigitDim+DigitSize)
	for r := 0; r < DigitSize; r++ {
		for c := 0; c < DigitSize; c++ {
			v := img[r*DigitSize+c]
			switch {
			case v > 0.66:
				buf = append(buf, '#')
			case v > 0.33:
				buf = append(buf, '+')
			case v > 0.15:
				buf = append(buf, '.')
			default:
				buf = append(buf, ' ')
			}
		}
		buf = append(buf, '\n')
	}
	return string(buf)
}
