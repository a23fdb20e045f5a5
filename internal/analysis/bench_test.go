package analysis

import (
	"fmt"
	"math/rand"
	"testing"
)

func benchPoints(n, dim int) [][]float64 {
	rng := rand.New(rand.NewSource(1))
	pts := make([][]float64, n)
	for i := range pts {
		v := make([]float64, dim)
		for d := range v {
			v[d] = rng.Float64() * 100
		}
		pts[i] = v
	}
	return pts
}

func BenchmarkKMeans(b *testing.B) {
	pts := benchPoints(2000, 18)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := KMeans(pts, 4, 1, 50); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkClassify(b *testing.B) {
	pts := benchPoints(500, 18)
	m, err := TrainModel(pts, 4, 1)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := m.Classify(pts[i%len(pts)]); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkBlackBoxObserve(b *testing.B) {
	bb, err := NewBlackBox(BlackBoxConfig{Nodes: 50, NumStates: 4, WindowSize: 60, WindowSlide: 15, Threshold: 55})
	if err != nil {
		b.Fatal(err)
	}
	states := make([]int, 50)
	rng := rand.New(rand.NewSource(2))
	for i := range states {
		states[i] = rng.Intn(4)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := bb.Observe(states); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkWhiteBoxObserve(b *testing.B) {
	wb, err := NewWhiteBox(WhiteBoxConfig{Nodes: 50, Metrics: 12, WindowSize: 60, WindowSlide: 15, K: 3})
	if err != nil {
		b.Fatal(err)
	}
	rng := rand.New(rand.NewSource(3))
	vectors := make([][]float64, 50)
	for i := range vectors {
		v := make([]float64, 12)
		for d := range v {
			v[d] = rng.Float64() * 4
		}
		vectors[i] = v
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := wb.Observe(vectors); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkWhiteBoxWindowClose measures the tick that closes a window at
// fleet width: the ring holds one full 60-sample window, and each iteration
// observes one 15-sample slide, the last of which evaluates every node.
func BenchmarkWhiteBoxWindowClose(b *testing.B) {
	const metrics, window, slide = 7, 60, 15
	for _, nodes := range []int{512, 2048} {
		b.Run(fmt.Sprintf("nodes=%d", nodes), func(b *testing.B) {
			wb, err := NewWhiteBox(WhiteBoxConfig{Nodes: nodes, Metrics: metrics, WindowSize: window, WindowSlide: slide, K: 3})
			if err != nil {
				b.Fatal(err)
			}
			vectors := benchPoints(nodes, metrics)
			for i := 0; i < window; i++ {
				if _, err := wb.Observe(vectors); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				for s := 0; s < slide; s++ {
					res, err := wb.Observe(vectors)
					if err != nil {
						b.Fatal(err)
					}
					if (res != nil) != (s == slide-1) {
						b.Fatalf("slide sample %d: window closed = %v", s, res != nil)
					}
				}
			}
		})
	}
}
