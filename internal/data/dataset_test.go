package data

import (
	"bytes"
	"math"
	"math/rand"
	"testing"

	"github.com/drdp/drdp/internal/mat"
)

func binaryDS() *Dataset {
	return &Dataset{
		X:          mat.FromRows([][]float64{{1, 2}, {3, 4}, {5, 6}, {7, 8}}),
		Y:          []float64{1, -1, 1, -1},
		NumClasses: 2,
	}
}

func TestDatasetValidate(t *testing.T) {
	if err := binaryDS().Validate(); err != nil {
		t.Fatalf("valid dataset rejected: %v", err)
	}
	tests := []struct {
		name   string
		mutate func(*Dataset)
	}{
		{"nil X", func(d *Dataset) { d.X = nil }},
		{"label count", func(d *Dataset) { d.Y = d.Y[:2] }},
		{"negative classes", func(d *Dataset) { d.NumClasses = -1 }},
		{"bad binary label", func(d *Dataset) { d.Y[0] = 0 }},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			d := binaryDS()
			tt.mutate(d)
			if err := d.Validate(); err == nil {
				t.Error("expected error")
			}
		})
	}
	// Multiclass label range.
	mc := &Dataset{X: mat.FromRows([][]float64{{1}}), Y: []float64{3}, NumClasses: 3}
	if err := mc.Validate(); err == nil {
		t.Error("out-of-range class label accepted")
	}
	mc.Y[0] = 1.5
	if err := mc.Validate(); err == nil {
		t.Error("fractional class label accepted")
	}
}

func TestCloneIndependence(t *testing.T) {
	d := binaryDS()
	c := d.Clone()
	c.X.Set(0, 0, 99)
	c.Y[0] = -1
	if d.X.At(0, 0) == 99 || d.Y[0] == -1 {
		t.Error("Clone shares storage")
	}
}

func TestShufflePreservesPairs(t *testing.T) {
	rng := rand.New(rand.NewSource(80))
	// Construct a dataset where the label equals the first feature's sign.
	n := 100
	x := mat.NewDense(n, 1)
	y := make([]float64, n)
	for i := 0; i < n; i++ {
		v := rng.NormFloat64()
		x.Set(i, 0, v)
		if v >= 0 {
			y[i] = 1
		} else {
			y[i] = -1
		}
	}
	d := &Dataset{X: x, Y: y, NumClasses: 2}
	d.Shuffle(rng)
	for i := 0; i < n; i++ {
		want := 1.0
		if d.X.At(i, 0) < 0 {
			want = -1
		}
		if d.Y[i] != want {
			t.Fatalf("row %d: feature/label pairing broken", i)
		}
	}
}

func TestSplit(t *testing.T) {
	rng := rand.New(rand.NewSource(81))
	d := binaryDS()
	train, test, err := d.Split(1, rng)
	if err != nil {
		t.Fatal(err)
	}
	if train.Len() != 1 || test.Len() != 3 {
		t.Errorf("split sizes %d/%d", train.Len(), test.Len())
	}
	if _, _, err := d.Split(0, rng); err == nil {
		t.Error("Split(0) accepted")
	}
	if _, _, err := d.Split(4, rng); err == nil {
		t.Error("Split(n) accepted")
	}
}

func TestConcat(t *testing.T) {
	d := binaryDS()
	all, err := d.Concat(d)
	if err != nil {
		t.Fatal(err)
	}
	if all.Len() != 8 {
		t.Errorf("concat length %d", all.Len())
	}
	other := &Dataset{X: mat.NewDense(1, 3), Y: []float64{1}, NumClasses: 2}
	if _, err := d.Concat(other); err == nil {
		t.Error("dim mismatch accepted")
	}
	mc := &Dataset{X: mat.NewDense(1, 2), Y: []float64{0}, NumClasses: 3}
	if _, err := d.Concat(mc); err == nil {
		t.Error("class mismatch accepted")
	}
}

func TestClassCounts(t *testing.T) {
	counts := binaryDS().ClassCounts()
	if counts[1] != 2 || counts[-1] != 2 {
		t.Errorf("counts %v", counts)
	}
}

func TestLinearTaskBayesAccuracy(t *testing.T) {
	rng := rand.New(rand.NewSource(82))
	task := LinearTask{W: mat.Vec{2, -1}, Bias: 0.5}
	ds := task.Sample(rng, 500)
	if err := ds.Validate(); err != nil {
		t.Fatal(err)
	}
	// Noiseless task: the true params classify everything correctly.
	params := task.Params()
	var correct int
	for i := 0; i < ds.Len(); i++ {
		score := mat.Dot(params[:2], ds.X.Row(i)) + params[2]
		pred := 1.0
		if score < 0 {
			pred = -1
		}
		if pred == ds.Y[i] {
			correct++
		}
	}
	if correct != ds.Len() {
		t.Errorf("true params misclassify %d/%d noiseless samples", ds.Len()-correct, ds.Len())
	}
}

func TestLinearTaskFlipRate(t *testing.T) {
	rng := rand.New(rand.NewSource(83))
	task := LinearTask{W: mat.Vec{1}, Flip: 0.25}
	ds := task.Sample(rng, 20000)
	var flipped int
	for i := 0; i < ds.Len(); i++ {
		want := 1.0
		if ds.X.At(i, 0) < 0 {
			want = -1
		}
		if ds.Y[i] != want {
			flipped++
		}
	}
	rate := float64(flipped) / float64(ds.Len())
	if math.Abs(rate-0.25) > 0.02 {
		t.Errorf("flip rate %v, want 0.25", rate)
	}
}

func TestSampleImbalanced(t *testing.T) {
	rng := rand.New(rand.NewSource(86))
	task := LinearTask{W: mat.Vec{2, -1}}
	ds, err := task.SampleImbalanced(rng, 200, 0.1)
	if err != nil {
		t.Fatal(err)
	}
	if err := ds.Validate(); err != nil {
		t.Fatal(err)
	}
	counts := ds.ClassCounts()
	if counts[1] != 20 {
		t.Errorf("positive count %d, want 20", counts[1])
	}
	// Labels must still match the separator (no flip configured).
	for i := 0; i < ds.Len(); i++ {
		want := 1.0
		if mat.Dot(task.W, ds.X.Row(i)) < 0 {
			want = -1
		}
		if ds.Y[i] != want {
			t.Fatalf("label mismatch at row %d", i)
		}
	}
	// Errors and edge quotas.
	if _, err := task.SampleImbalanced(rng, 100, 0); err == nil {
		t.Error("posFrac=0 accepted")
	}
	if _, err := task.SampleImbalanced(rng, 100, 1); err == nil {
		t.Error("posFrac=1 accepted")
	}
	tiny, err := task.SampleImbalanced(rng, 10, 0.001)
	if err != nil {
		t.Fatal(err)
	}
	if tiny.ClassCounts()[1] < 1 {
		t.Error("quota floor failed: no positive sample")
	}
}

func TestTaskFamily(t *testing.T) {
	rng := rand.New(rand.NewSource(84))
	f, err := NewTaskFamily(rng, 5, 3, 4, 0.2)
	if err != nil {
		t.Fatal(err)
	}
	if len(f.Centers) != 3 {
		t.Fatalf("got %d centers", len(f.Centers))
	}
	for _, c := range f.Centers {
		if math.Abs(mat.Norm2(c)-4) > 1e-9 {
			t.Errorf("center norm %v, want 4", mat.Norm2(c))
		}
	}
	// Tasks from the same cluster stay close; different clusters are far.
	t0a := f.SampleTask(rng, 0)
	t0b := f.SampleTask(rng, 0)
	t1 := f.SampleTask(rng, 1)
	same := mat.Dist2(t0a.W, t0b.W)
	diff := mat.Dist2(t0a.W, t1.W)
	if same >= diff {
		t.Errorf("within-cluster dist %v >= cross-cluster %v", same, diff)
	}
	tasks := f.CloudTasks(rng, 7)
	if len(tasks) != 7 {
		t.Errorf("CloudTasks returned %d", len(tasks))
	}
	// Errors.
	if _, err := NewTaskFamily(rng, 0, 3, 1, 0.1); err == nil {
		t.Error("dim=0 accepted")
	}
	if _, err := NewTaskFamily(rng, 3, 3, -1, 0.1); err == nil {
		t.Error("negative spread accepted")
	}
}

func TestBlobTask(t *testing.T) {
	rng := rand.New(rand.NewSource(85))
	b, err := NewBlobTask(rng, 4, 3, 5, 0.5)
	if err != nil {
		t.Fatal(err)
	}
	ds := b.Sample(rng, 90)
	if err := ds.Validate(); err != nil {
		t.Fatal(err)
	}
	counts := ds.ClassCounts()
	for c := 0; c < 3; c++ {
		if counts[c] != 30 {
			t.Errorf("class %d count %d, want 30", c, counts[c])
		}
	}
	if _, err := NewBlobTask(rng, 4, 1, 5, 0.5); err == nil {
		t.Error("1 class accepted")
	}
}

func TestCSVRoundTrip(t *testing.T) {
	d := binaryDS()
	var buf bytes.Buffer
	if err := d.WriteCSV(&buf); err != nil {
		t.Fatal(err)
	}
	got, err := ReadCSV(&buf, 2)
	if err != nil {
		t.Fatal(err)
	}
	if !got.X.Equal(d.X, 0) {
		t.Error("features changed in CSV round trip")
	}
	for i := range d.Y {
		if got.Y[i] != d.Y[i] {
			t.Error("labels changed in CSV round trip")
		}
	}
	if _, err := ReadCSV(bytes.NewReader(nil), 2); err == nil {
		t.Error("empty CSV accepted")
	}
	if _, err := ReadCSV(bytes.NewBufferString("1,notanumber\n"), 0); err == nil {
		t.Error("bad float accepted")
	}
}
