package edge

import (
	"bytes"
	"errors"
	"math"
	"math/rand"
	"testing"
	"time"

	"github.com/drdp/drdp/internal/dpprior"
	"github.com/drdp/drdp/internal/mat"
	"github.com/drdp/drdp/internal/store"
	"github.com/drdp/drdp/internal/telemetry"
)

// adversarialTask crafts a finite, well-formed but hostile posterior:
// a far-off mean with a tiny confident covariance and a huge sample
// count — only the statistical quarantine can catch it.
func adversarialTask(dim int) dpprior.TaskPosterior {
	mu := make(mat.Vec, dim)
	for j := range mu {
		mu[j] = -40 - float64(j)
	}
	sigma := mat.Eye(dim)
	sigma.ScaleBy(1e-4)
	return dpprior.TaskPosterior{Mu: mu, Sigma: sigma, N: 100000}
}

// TestNaNUploadRejectedAndPriorUntouched is the regression test for the
// validation gate: a posterior with a NaN mean must be refused with
// CodeBadRequest and must leave the served prior — version AND bytes —
// exactly as it was.
func TestNaNUploadRejectedAndPriorUntouched(t *testing.T) {
	rng := rand.New(rand.NewSource(700))
	addr, srv := startServerCfg(t, seedTasks(rng, 5, 4), nil)
	srv.WaitCaughtUp()
	before, v0, err := srv.Prior()
	if err != nil {
		t.Fatal(err)
	}
	beforeBytes := priorBytes(t, before)

	c, err := Dial(addr, time.Second)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	bad := seedTasks(rng, 1, 4)[0]
	bad.Mu[2] = math.NaN()
	_, err = c.ReportTask(bad)
	if err == nil {
		t.Fatal("NaN upload accepted")
	}
	var se *ServerError
	if !errors.As(err, &se) || se.Code != CodeBadRequest {
		t.Fatalf("NaN upload error %v, want CodeBadRequest", err)
	}

	srv.WaitCaughtUp()
	after, v1, err := srv.Prior()
	if err != nil {
		t.Fatal(err)
	}
	if v1 != v0 {
		t.Errorf("prior version moved %d -> %d on a rejected upload", v0, v1)
	}
	if !bytes.Equal(beforeBytes, priorBytes(t, after)) {
		t.Error("served prior bytes changed after a rejected upload")
	}
	st, err := c.Stats()
	if err != nil {
		t.Fatal(err)
	}
	if st.Rejected < 1 {
		t.Errorf("Stats.Rejected = %d, want >= 1", st.Rejected)
	}
	if st.Tasks != 5 {
		t.Errorf("Stats.Tasks = %d, want 5", st.Tasks)
	}
}

// TestPoisonedEdgesQuarantinedPriorByteStable is the chaos acceptance
// test: with 30% of uploads adversarial and quarantine on, the served
// prior must be Validate()-clean AND byte-identical to a baseline built
// from the clean uploads alone.
func TestPoisonedEdgesQuarantinedPriorByteStable(t *testing.T) {
	rng := rand.New(rand.NewSource(701))
	const dim = 4
	honest := seedTasks(rng, 10, dim)

	// Baseline: quarantine on, honest tasks only. MinScored is pinned to
	// the attacked fleet's full population so the judge runs in exactly
	// one round on a complete view — the verdicts (and therefore the
	// admitted set) cannot depend on how the background worker happens to
	// coalesce rebuilds.
	adm := AdmissionConfig{Quarantine: true, TrimFrac: 0.4, MinScored: 14}
	base, err := NewCloudServer(nil, dpprior.BuildOptions{Alpha: 1, Seed: 7}, telemetry.Discard())
	if err != nil {
		t.Fatal(err)
	}
	defer base.Close()
	base.SetAdmission(adm)
	for _, task := range honest {
		if _, err := base.AddTask(task); err != nil {
			t.Fatal(err)
		}
	}
	base.WaitCaughtUp()
	basePrior, _, err := base.Prior()
	if err != nil {
		t.Fatal(err)
	}
	baseBytes := priorBytes(t, basePrior)

	// Attacked fleet: the same honest uploads in the same order, with 4
	// adversarial uploads (4/14 ≈ 30%) interleaved.
	srv, err := NewCloudServer(nil, dpprior.BuildOptions{Alpha: 1, Seed: 7}, telemetry.Discard())
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	srv.SetAdmission(adm)
	for i, task := range honest {
		if i%3 == 1 {
			if _, err := srv.AddTask(adversarialTask(dim)); err != nil {
				t.Fatal(err)
			}
		}
		if _, err := srv.AddTask(task); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := srv.AddTask(adversarialTask(dim)); err != nil {
		t.Fatal(err)
	}
	srv.WaitCaughtUp()

	got, _, err := srv.Prior()
	if err != nil {
		t.Fatal(err)
	}
	if err := got.Validate(); err != nil {
		t.Errorf("served prior invalid under attack: %v", err)
	}
	if !bytes.Equal(baseBytes, priorBytes(t, got)) {
		t.Error("served prior under 30% poisoning differs from the clean baseline")
	}
	st := srv.Stats()
	if st.Quarantined != 4 {
		t.Errorf("Stats.Quarantined = %d, want 4", st.Quarantined)
	}
	if st.Accepted != len(honest) {
		t.Errorf("Stats.Accepted = %d, want %d", st.Accepted, len(honest))
	}
}

// TestVerdictsSurviveServerRestart: quarantine verdicts persist in the
// durable store, so a restarted cloud keeps poisoned tasks out without
// re-judging them.
func TestVerdictsSurviveServerRestart(t *testing.T) {
	rng := rand.New(rand.NewSource(702))
	dir := t.TempDir()
	const dim = 4
	honest := seedTasks(rng, 8, dim)

	st1, err := store.Open(store.Options{Dir: dir, Logger: telemetry.Discard(),
		Validate: dpprior.TaskValidator()})
	if err != nil {
		t.Fatal(err)
	}
	srv1, err := NewCloudServerWithStore(st1, nil, dpprior.BuildOptions{Alpha: 1, Seed: 7}, telemetry.Discard())
	if err != nil {
		t.Fatal(err)
	}
	// One deterministic judgment round over the complete population (see
	// TestPoisonedEdgesQuarantinedPriorByteStable).
	srv1.SetAdmission(AdmissionConfig{Quarantine: true, TrimFrac: 0.4, MinScored: 9})
	for i, task := range honest {
		if _, err := srv1.AddTask(task); err != nil {
			t.Fatal(err)
		}
		if i == 4 {
			if _, err := srv1.AddTask(adversarialTask(dim)); err != nil {
				t.Fatal(err)
			}
		}
	}
	srv1.WaitCaughtUp()
	p1, _, err := srv1.Prior()
	if err != nil {
		t.Fatal(err)
	}
	p1Bytes := priorBytes(t, p1)
	if got := srv1.Stats().Quarantined; got != 1 {
		t.Fatalf("pre-restart Quarantined = %d, want 1", got)
	}
	if err := srv1.Close(); err != nil {
		t.Fatal(err)
	}

	st2, err := store.Open(store.Options{Dir: dir, Logger: telemetry.Discard(),
		Validate: dpprior.TaskValidator()})
	if err != nil {
		t.Fatal(err)
	}
	verdicts := st2.Verdicts()
	var quarantined int
	for _, q := range verdicts {
		if q {
			quarantined++
		}
	}
	if quarantined != 1 {
		t.Fatalf("recovered %d quarantine verdicts, want 1", quarantined)
	}
	srv2, err := NewCloudServerWithStore(st2, nil, dpprior.BuildOptions{Alpha: 1, Seed: 7}, telemetry.Discard())
	if err != nil {
		t.Fatal(err)
	}
	defer srv2.Close()
	srv2.SetAdmission(AdmissionConfig{Quarantine: true, TrimFrac: 0.4, MinScored: 9})
	srv2.WaitCaughtUp()
	p2, _, err := srv2.Prior()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(p1Bytes, priorBytes(t, p2)) {
		t.Error("served prior changed across restart despite persisted verdicts")
	}
	if got := srv2.Stats().Quarantined; got != 1 {
		t.Errorf("post-restart Quarantined = %d, want 1", got)
	}
}
