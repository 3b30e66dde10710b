// Benchmarks regenerating every table and figure of the evaluation suite
// (see EXPERIMENTS.md). Each benchmark prints the rows/series it
// regenerates once, then times repeated regeneration. Run a single one:
//
//	go test -bench=BenchmarkTable1 -benchmem
//
// or the whole suite (also emitted by cmd/drdp-bench without the timing):
//
//	go test -bench=. -benchmem
package drdp_test

import (
	"os"
	"sync"
	"testing"

	"github.com/drdp/drdp/internal/experiment"
)

// benchCfg uses the fast workload so the full suite stays tractable under
// `go test -bench=.`; cmd/drdp-bench runs the full-size workload.
func benchCfg() experiment.RunConfig {
	return experiment.RunConfig{Reps: 1, Seed: 42, Fast: true}
}

// printOnce renders each experiment's output a single time per process so
// benchmark iterations are not dominated by I/O.
var printOnce sync.Map

func renderOnce(b *testing.B, key string, render func() error) {
	b.Helper()
	if _, done := printOnce.LoadOrStore(key, true); done {
		return
	}
	if err := render(); err != nil {
		b.Fatal(err)
	}
}

func benchTable(b *testing.B, key string, run func(experiment.RunConfig) (*experiment.Table, error)) {
	b.Helper()
	tab, err := run(benchCfg())
	if err != nil {
		b.Fatal(err)
	}
	renderOnce(b, key, func() error { return tab.Render(os.Stdout) })
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := run(benchCfg()); err != nil {
			b.Fatal(err)
		}
	}
}

func benchFigure(b *testing.B, key string, run func(experiment.RunConfig) (*experiment.Series, error)) {
	b.Helper()
	ser, err := run(benchCfg())
	if err != nil {
		b.Fatal(err)
	}
	renderOnce(b, key, func() error { return ser.Render(os.Stdout) })
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := run(benchCfg()); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkTable1SampleEfficiency regenerates the main result: accuracy
// vs local sample size for DRDP and all baselines.
func BenchmarkTable1SampleEfficiency(b *testing.B) {
	benchTable(b, "table1", experiment.Table1SampleEfficiency)
}

// BenchmarkTable2ShiftRobustness regenerates the covariate-shift study.
func BenchmarkTable2ShiftRobustness(b *testing.B) {
	benchTable(b, "table2", experiment.Table2ShiftRobustness)
}

// BenchmarkTable3Digits regenerates the multiclass synthetic-digit study.
func BenchmarkTable3Digits(b *testing.B) {
	benchTable(b, "table3", experiment.Table3Digits)
}

// BenchmarkTable4SystemsCost regenerates the knowledge-transfer systems
// cost analysis (wire size, link transfer times, per-iteration compute).
func BenchmarkTable4SystemsCost(b *testing.B) {
	benchTable(b, "table4", experiment.Table4SystemsCost)
}

// BenchmarkFigure1RadiusSweep regenerates the robustness–accuracy
// tradeoff across Wasserstein radii.
func BenchmarkFigure1RadiusSweep(b *testing.B) {
	benchFigure(b, "fig1", experiment.Figure1RadiusSweep)
}

// BenchmarkFigure2AlphaSweep regenerates the DP-concentration dial study.
func BenchmarkFigure2AlphaSweep(b *testing.B) {
	benchFigure(b, "fig2", experiment.Figure2AlphaSweep)
}

// BenchmarkFigure3Convergence regenerates the EM objective trace.
func BenchmarkFigure3Convergence(b *testing.B) {
	benchFigure(b, "fig3", experiment.Figure3Convergence)
}

// BenchmarkFigure4CloudTasks regenerates the knowledge-accumulation study.
func BenchmarkFigure4CloudTasks(b *testing.B) {
	benchFigure(b, "fig4", experiment.Figure4CloudTasks)
}

// BenchmarkFigure5SetAblation regenerates the uncertainty-set ablation.
func BenchmarkFigure5SetAblation(b *testing.B) {
	benchFigure(b, "fig5", experiment.Figure5SetAblation)
}

// BenchmarkFigure6MultiDevice regenerates the heterogeneous-fleet study.
func BenchmarkFigure6MultiDevice(b *testing.B) {
	benchFigure(b, "fig6", experiment.Figure6MultiDevice)
}

// BenchmarkTable5PriorFitAblation regenerates the collapsed-Gibbs
// prior-construction row: components, build time, edge accuracy.
func BenchmarkTable5PriorFitAblation(b *testing.B) {
	benchTable(b, "table5", experiment.Table5PriorFitAblation)
}

// BenchmarkTable6StochasticMStep regenerates the full-batch vs minibatch
// M-step cost/quality comparison.
func BenchmarkTable6StochasticMStep(b *testing.B) {
	benchTable(b, "table6", experiment.Table6StochasticMStep)
}

// BenchmarkFigure7FedAvgComparison regenerates the DRDP vs FedAvg
// heterogeneity study.
func BenchmarkFigure7FedAvgComparison(b *testing.B) {
	benchFigure(b, "fig7", experiment.Figure7FedAvgComparison)
}

// BenchmarkFigure8OnlineLearning regenerates the streaming-data study.
func BenchmarkFigure8OnlineLearning(b *testing.B) {
	benchFigure(b, "fig8", experiment.Figure8OnlineLearning)
}

// BenchmarkFigure9CertificateValidity regenerates the certificate-vs-
// realized-attack validation of the Wasserstein duality.
func BenchmarkFigure9CertificateValidity(b *testing.B) {
	benchFigure(b, "fig9", experiment.Figure9CertificateValidity)
}

// BenchmarkTable7Calibration regenerates the calibration comparison.
func BenchmarkTable7Calibration(b *testing.B) {
	benchTable(b, "table7", experiment.Table7Calibration)
}

// BenchmarkTable8SolverAblation regenerates the inner-solver ablation.
func BenchmarkTable8SolverAblation(b *testing.B) {
	benchTable(b, "table8", experiment.Table8SolverAblation)
}

// BenchmarkTable9Deployment regenerates the discrete-event fleet
// deployment simulation (links × rebuild policies).
func BenchmarkTable9Deployment(b *testing.B) {
	benchTable(b, "table9", experiment.Table9Deployment)
}

// BenchmarkFigure11DriftTracking regenerates the concept-drift streaming
// study (accumulate vs window vs static).
func BenchmarkFigure11DriftTracking(b *testing.B) {
	benchFigure(b, "fig11", experiment.Figure11DriftTracking)
}

// BenchmarkFigure12GroundMetric regenerates the Wasserstein ground-metric
// cross-attack study.
func BenchmarkFigure12GroundMetric(b *testing.B) {
	benchFigure(b, "fig12", experiment.Figure12GroundMetric)
}

// BenchmarkTable10Imbalance regenerates the class-imbalance study.
func BenchmarkTable10Imbalance(b *testing.B) {
	benchTable(b, "table10", experiment.Table10Imbalance)
}

// BenchmarkTable11AlphaSelection regenerates the empirical-Bayes
// concentration-selection study.
func BenchmarkTable11AlphaSelection(b *testing.B) {
	benchTable(b, "table11", experiment.Table11AlphaSelection)
}
