package dro

import (
	"math/rand"
	"testing"
)

func benchLosses(n int) []float64 {
	rng := rand.New(rand.NewSource(1))
	out := make([]float64, n)
	for i := range out {
		out[i] = rng.ExpFloat64()
	}
	return out
}

func BenchmarkKLWorstCase200(b *testing.B) {
	losses := benchLosses(200)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		klWorst(losses, 0.2)
	}
}

func BenchmarkKLWorstCase5000(b *testing.B) {
	losses := benchLosses(5000)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		klWorst(losses, 0.2)
	}
}

func BenchmarkChi2WorstCase200(b *testing.B) {
	losses := benchLosses(200)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		chi2Worst(losses, 0.2)
	}
}

func BenchmarkChi2WorstCase5000(b *testing.B) {
	losses := benchLosses(5000)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		chi2Worst(losses, 0.2)
	}
}

func BenchmarkWassersteinWorstCase(b *testing.B) {
	losses := benchLosses(200)
	s := Set{Kind: Wasserstein, Rho: 0.1}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		s.WorstCase(losses, 2.5)
	}
}
