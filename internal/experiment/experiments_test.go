package experiment

import (
	"bytes"
	"strconv"
	"strings"
	"testing"

	"github.com/drdp/drdp/internal/em"
	"github.com/drdp/drdp/internal/telemetry"
)

// fastCfg keeps the smoke tests quick while exercising every runner.
func fastCfg() RunConfig { return RunConfig{Reps: 1, Seed: 11, Fast: true} }

func TestTable1Smoke(t *testing.T) {
	if testing.Short() {
		t.Skip("experiment runner; skip in -short")
	}
	tab, err := Table1SampleEfficiency(fastCfg())
	if err != nil {
		t.Fatal(err)
	}
	if len(tab.Rows) != 7 {
		t.Errorf("expected 7 method rows, got %d", len(tab.Rows))
	}
	var buf bytes.Buffer
	if err := tab.Render(&buf); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "drdp") {
		t.Error("drdp row missing")
	}
}

func TestTable2Smoke(t *testing.T) {
	if testing.Short() {
		t.Skip("experiment runner; skip in -short")
	}
	tab, err := Table2ShiftRobustness(fastCfg())
	if err != nil {
		t.Fatal(err)
	}
	if len(tab.Rows) != 4 {
		t.Errorf("expected 4 rows, got %d", len(tab.Rows))
	}
}

func TestTable3Smoke(t *testing.T) {
	if testing.Short() {
		t.Skip("experiment runner (slow: 650-dim softmax); skip in -short")
	}
	tab, err := Table3Digits(fastCfg())
	if err != nil {
		t.Fatal(err)
	}
	if len(tab.Rows) != 4 {
		t.Errorf("expected 4 rows, got %d", len(tab.Rows))
	}
}

func TestTable4Smoke(t *testing.T) {
	if testing.Short() {
		t.Skip("experiment runner; skip in -short")
	}
	tab, err := Table4SystemsCost(fastCfg())
	if err != nil {
		t.Fatal(err)
	}
	if len(tab.Rows) == 0 {
		t.Error("no rows")
	}
	// Wire size must grow in the component count within a dim block, and
	// 3g must always be slower than wifi (sanity of the link model).
	for _, row := range tab.Rows {
		if row[4] >= row[6] && row[4] == row[6] {
			t.Errorf("wifi %s not faster than 3g %s", row[4], row[6])
		}
	}
}

func TestFigureSmokes(t *testing.T) {
	if testing.Short() {
		t.Skip("experiment runners; skip in -short")
	}
	cfg := fastCfg()
	figs := []struct {
		name string
		run  func(RunConfig) (*Series, error)
	}{
		{"fig1", Figure1RadiusSweep},
		{"fig2", Figure2AlphaSweep},
		{"fig4", Figure4CloudTasks},
		{"fig5", Figure5SetAblation},
		{"fig6", Figure6MultiDevice},
		{"fig7", Figure7FedAvgComparison},
		{"fig8", Figure8OnlineLearning},
		{"fig9", Figure9CertificateValidity},
		{"fig11", Figure11DriftTracking},
		{"fig12", Figure12GroundMetric},
	}
	for _, f := range figs {
		t.Run(f.name, func(t *testing.T) {
			ser, err := f.run(cfg)
			if err != nil {
				t.Fatal(err)
			}
			if len(ser.X) == 0 || len(ser.Names) == 0 {
				t.Fatalf("empty series %+v", ser)
			}
			var buf bytes.Buffer
			if err := ser.Render(&buf); err != nil {
				t.Fatal(err)
			}
		})
	}
}

func TestTable5And6Smoke(t *testing.T) {
	if testing.Short() {
		t.Skip("experiment runners; skip in -short")
	}
	cfg := fastCfg()
	t5, err := Table5PriorFitAblation(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(t5.Rows) != 1 {
		t.Errorf("table5 rows %d, want 1 (gibbs)", len(t5.Rows))
	}
	t6, err := Table6StochasticMStep(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(t6.Rows) == 0 {
		t.Error("table6 empty")
	}
	t7, err := Table7Calibration(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(t7.Rows) != 3 {
		t.Errorf("table7 rows %d, want 3", len(t7.Rows))
	}
	t8, err := Table8SolverAblation(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(t8.Rows) != 8 {
		t.Errorf("table8 rows %d, want 8 (4 solvers × 2 radii)", len(t8.Rows))
	}
	t9, err := Table9Deployment(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(t9.Rows) != 4 { // 2 links (fast) × 2 policies
		t.Errorf("table9 rows %d, want 4", len(t9.Rows))
	}
	t10, err := Table10Imbalance(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(t10.Rows) != 2 { // fast mode: 2 fractions
		t.Errorf("table10 rows %d, want 2", len(t10.Rows))
	}
	t11, err := Table11AlphaSelection(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(t11.Rows) != 2 { // fast mode: 2 regimes
		t.Errorf("table11 rows %d, want 2", len(t11.Rows))
	}
}

func TestFigure3ConvergenceMonotone(t *testing.T) {
	if testing.Short() {
		t.Skip("experiment runner; skip in -short")
	}
	ser, err := Figure3Convergence(fastCfg())
	if err != nil {
		t.Fatal(err)
	}
	if len(ser.Y) != 1 {
		t.Fatalf("expected one series, got %d", len(ser.Y))
	}
	if err := em.CheckMonotone(ser.Y[0], 1e-6); err != nil {
		t.Errorf("convergence trace not monotone: %v", err)
	}
	if len(ser.Y[0]) < 3 {
		t.Errorf("trace too short: %v", ser.Y[0])
	}
}

// TestExperimentTelemetryFootprint checks that running an experiment
// leaves a training footprint in the process-wide registry — the same
// counters drdp-bench -json records per experiment.
func TestExperimentTelemetryFootprint(t *testing.T) {
	if testing.Short() {
		t.Skip("experiment runner; skip in -short")
	}
	before := telemetry.Snapshot()
	if _, err := Table1SampleEfficiency(fastCfg()); err != nil {
		t.Fatal(err)
	}
	after := telemetry.Snapshot()
	fits := after.CounterDelta(before, "drdp_core_fits_total")
	iters := after.CounterDelta(before, "drdp_core_em_iterations_total")
	if fits <= 0 || iters < fits {
		t.Errorf("implausible training footprint: %g fits, %g EM iterations", fits, iters)
	}
	hb, _ := after.Histogram("drdp_core_fit_seconds")
	ha, _ := before.Histogram("drdp_core_fit_seconds")
	if d := hb.Delta(ha); float64(d.Count) != fits {
		t.Errorf("fit-seconds observations %d != fits %g", d.Count, fits)
	}
}

// TestTable14Smoke runs the poisoned-edge sweep in fast mode and checks
// the headline claim: at a non-zero poison fraction, admission control
// on beats admission control off on clean late-device accuracy.
func TestTable14Smoke(t *testing.T) {
	if testing.Short() {
		t.Skip("experiment runner; skip in -short")
	}
	tab, err := Table14PoisonedEdges(fastCfg())
	if err != nil {
		t.Fatal(err)
	}
	if len(tab.Rows) != 4 { // fast mode: 2 fractions × admission on/off
		t.Fatalf("table14 rows %d, want 4", len(tab.Rows))
	}
	acc := func(row []string) float64 {
		v, err := strconv.ParseFloat(strings.SplitN(row[2], "±", 2)[0], 64)
		if err != nil {
			t.Fatalf("unparseable accuracy cell %q: %v", row[2], err)
		}
		return v
	}
	for i := 0; i+1 < len(tab.Rows); i += 2 {
		off, on := tab.Rows[i], tab.Rows[i+1]
		if off[0] != on[0] || off[1] != "off" || on[1] != "on" {
			t.Fatalf("unexpected row layout: %v / %v", off, on)
		}
		if off[0] != "0%" && acc(on) <= acc(off) {
			t.Errorf("poisoned %s: admission on %.3f not above off %.3f",
				on[0], acc(on), acc(off))
		}
	}
}
