package dpprior

import (
	"bytes"
	"encoding/gob"
	"math"
	"math/rand"
	"reflect"
	"testing"

	"github.com/drdp/drdp/internal/mat"
)

// fullCovTask draws a task with a dense, exactly symmetric positive
// definite covariance (every entry off the diagonal set), so packing
// has a whole upper triangle to keep.
func fullCovTask(rng *rand.Rand, dim int, center float64) TaskPosterior {
	mu := make(mat.Vec, dim)
	for j := range mu {
		mu[j] = center + 0.3*rng.NormFloat64()
	}
	a := mat.NewDense(dim, dim)
	for i := range a.Data {
		a.Data[i] = rng.NormFloat64()
	}
	sigma := mat.NewDense(dim, dim)
	for i := 0; i < dim; i++ {
		for j := i; j < dim; j++ {
			v := 0.05 * mat.Dot(a.Row(i), a.Row(j)) / float64(dim)
			if i == j {
				v += 0.02
			}
			sigma.Set(i, j, v)
			sigma.Set(j, i, v)
		}
	}
	return TaskPosterior{Mu: mu, Sigma: sigma, N: 20 + rng.Intn(200)}
}

func mustPack(t testing.TB, tasks []TaskPosterior) []StoredTask {
	t.Helper()
	out := make([]StoredTask, len(tasks))
	for i, task := range tasks {
		st, err := PackTask(task)
		if err != nil {
			t.Fatal(err)
		}
		out[i] = st
	}
	return out
}

func gobOf(t *testing.T, v any) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(v); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestPackTaskRoundTrip: a packed task unpacks to the bits it was packed
// from (the covariance is symmetric), into fresh or reused storage, and
// reports the dense form's fingerprint and wire size.
func TestPackTaskRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	var reused TaskPosterior
	for _, dim := range []int{1, 2, 5, 17} {
		task := fullCovTask(rng, dim, 1)
		st, err := PackTask(task)
		if err != nil {
			t.Fatal(err)
		}
		if got, want := len(st.packed), dim+dim*(dim+1)/2; got != want || cap(st.packed) != want {
			t.Errorf("dim %d: packed %d floats (cap %d), want %d", dim, got, cap(st.packed), want)
		}
		if st.Dim() != dim || st.N != task.N || !bytes.Equal(gobOf(t, st.Mu()), gobOf(t, task.Mu)) {
			t.Errorf("dim %d: Dim %d, N %d, Mu %v; want %d, %d, %v", dim, st.Dim(), st.N, st.Mu(), dim, task.N, task.Mu)
		}
		if !bytes.Equal(gobOf(t, st.Task()), gobOf(t, task)) {
			t.Errorf("dim %d: Task() differs from the packed task", dim)
		}
		st.UnpackInto(&reused) // grows across the loop, then is reused below
		if !bytes.Equal(gobOf(t, reused), gobOf(t, task)) {
			t.Errorf("dim %d: UnpackInto differs from the packed task", dim)
		}
		if st.Fingerprint() != task.Fingerprint() {
			t.Errorf("dim %d: fingerprint %x, dense %x", dim, st.Fingerprint(), task.Fingerprint())
		}
		if st.WireSize() != task.WireSize() {
			t.Errorf("dim %d: wire size %d, dense %d", dim, st.WireSize(), task.WireSize())
		}
		tr, rows := st.covTrace()
		if wantTr, wantRows := task.covTrace(); tr != wantTr || rows != wantRows {
			t.Errorf("dim %d: trace %v over %d rows, dense %v over %d", dim, tr, rows, wantTr, wantRows)
		}
	}
	small := fullCovTask(rng, 2, 0)
	st, _ := PackTask(small)
	st.UnpackInto(&reused) // a 17-dim buffer shrinks to 2×2 in place
	if !bytes.Equal(gobOf(t, reused), gobOf(t, small)) {
		t.Error("UnpackInto into a larger buffer differs from the packed task")
	}
}

// TestFingerprintMirrorsUpperTriangle: a covariance asymmetric in its
// last bit, which Validate admits, fingerprints as its packed form and as
// the symmetric matrix that form unpacks to.
func TestFingerprintMirrorsUpperTriangle(t *testing.T) {
	rng := rand.New(rand.NewSource(44))
	task := fullCovTask(rng, 5, 0)
	task.Sigma.Set(3, 1, math.Nextafter(task.Sigma.At(3, 1), math.Inf(1)))
	if err := task.Validate(0); err != nil {
		t.Fatal(err)
	}
	st, err := PackTask(task)
	if err != nil {
		t.Fatal(err)
	}
	mirrored := st.Task()
	if mirrored.Sigma.At(3, 1) == task.Sigma.At(3, 1) {
		t.Fatal("packing kept the lower triangle's entry")
	}
	fp := task.Fingerprint()
	if st.Fingerprint() != fp || mirrored.Fingerprint() != fp {
		t.Errorf("fingerprints: upload %x, packed %x, mirrored %x", fp, st.Fingerprint(), mirrored.Fingerprint())
	}
	task.Sigma.Set(1, 3, task.Sigma.At(3, 1)) // the upper triangle decides
	if task.Fingerprint() == fp {
		t.Error("changing Σ's upper triangle left the fingerprint unchanged")
	}
}

func TestPackTaskRejectsMisshapenTasks(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	good := fullCovTask(rng, 3, 0)
	for name, task := range map[string]TaskPosterior{
		"empty mean":     {Sigma: mat.NewDense(0, 0)},
		"no covariance":  {Mu: good.Mu},
		"not square":     {Mu: good.Mu, Sigma: mat.NewDense(3, 2)},
		"wrong size":     {Mu: good.Mu, Sigma: mat.Eye(4)},
		"short data":     {Mu: good.Mu, Sigma: &mat.Dense{Rows: 3, Cols: 3, Data: make([]float64, 8)}},
		"mean too short": {Mu: good.Mu[:2], Sigma: good.Sigma},
	} {
		if _, err := PackTask(task); err == nil {
			t.Errorf("%s: packed", name)
		}
	}
}

// TestPackedBuildMatchesDense: building, admitting and summarizing
// packed tasks gives the bits the dense tasks give.
func TestPackedBuildMatchesDense(t *testing.T) {
	rng := rand.New(rand.NewSource(43))
	var dense []TaskPosterior
	for i := 0; i < 60; i++ {
		dense = append(dense, fullCovTask(rng, 6, float64(4*(i%3))))
	}
	dense = append(dense, fullCovTask(rng, 6, 90)) // an outlier for the judge
	packed := mustPack(t, dense)
	opts := BuildOptions{Alpha: 1, Seed: 7}

	dp, err := Build(dense, opts)
	if err != nil {
		t.Fatal(err)
	}
	pp, err := Build(packed, opts)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(gobOf(t, pp), gobOf(t, dp)) {
		t.Error("prior built from packed tasks differs from the dense build")
	}

	undecided := func(int) (bool, bool) { return false, false }
	dAdm, dVerdicts, dDeferred := Admit(dense, undecided, dp, AdmissionOptions{})
	pAdm, pVerdicts, pDeferred := Admit(packed, undecided, dp, AdmissionOptions{})
	if !reflect.DeepEqual(pVerdicts, dVerdicts) || !reflect.DeepEqual(pDeferred, dDeferred) {
		t.Errorf("verdicts differ: packed %v %v, dense %v %v", pVerdicts, pDeferred, dVerdicts, dDeferred)
	}
	if !dVerdicts[len(dense)-1] {
		t.Error("the judge did not quarantine the outlier")
	}
	if len(pAdm) != len(dAdm) {
		t.Fatalf("admitted %d packed tasks, %d dense", len(pAdm), len(dAdm))
	}
	for i := range dAdm {
		if !bytes.Equal(gobOf(t, pAdm[i].Task()), gobOf(t, dAdm[i])) {
			t.Fatalf("admitted task %d differs", i)
		}
	}

	dSum, err := SummarizeTasks(dense, opts)
	if err != nil {
		t.Fatal(err)
	}
	pSum, err := SummarizeTasks(packed, opts)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(gobOf(t, pSum), gobOf(t, dSum)) {
		t.Error("summaries of packed tasks differ from the dense summaries")
	}
	few, err := SummarizeTasks(packed[:3], opts)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(gobOf(t, few), gobOf(t, dense[:3])) {
		t.Error("a window under the budget is not returned as its dense tasks")
	}
}
