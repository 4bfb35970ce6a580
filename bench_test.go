// One testing.B benchmark per table and figure of the paper's evaluation
// (§5). Each benchmark regenerates its experiment through internal/bench
// and reports the headline simulated operation time as a custom metric,
// so `go test -bench=. -benchmem` doubles as a reproduction run. The
// cmd/h2bench binary produces the full series at paper scale.
package h2cloud_test

import (
	"testing"

	"github.com/h2cloud/h2cloud/internal/bench"
)

// benchNs keeps testing.B sweeps fast; h2bench runs the paper's full
// 10..100,000 range.
var benchNs = []int{10, 100, 1000}

// reportFinal publishes each system's largest-scale simulated time as a
// benchmark metric (ms).
func reportFinal(b *testing.B, r bench.Result) {
	b.Helper()
	for _, s := range r.Series {
		if len(s.Points) == 0 {
			continue
		}
		p := s.Points[len(s.Points)-1]
		b.ReportMetric(p.Y, "simms/"+sanitize(s.System))
	}
}

func sanitize(s string) string {
	out := make([]rune, 0, len(s))
	for _, r := range s {
		switch {
		case r >= 'a' && r <= 'z', r >= 'A' && r <= 'Z', r >= '0' && r <= '9':
			out = append(out, r)
		}
	}
	return string(out)
}

func BenchmarkTable1Complexity(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := bench.Table1(); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFig7Move(b *testing.B) {
	var r bench.Result
	var err error
	for i := 0; i < b.N; i++ {
		if r, err = bench.Fig7Move(benchNs); err != nil {
			b.Fatal(err)
		}
	}
	reportFinal(b, r)
}

func BenchmarkFig8Rmdir(b *testing.B) {
	var r bench.Result
	var err error
	for i := 0; i < b.N; i++ {
		if r, err = bench.Fig8Rmdir(benchNs); err != nil {
			b.Fatal(err)
		}
	}
	reportFinal(b, r)
}

func BenchmarkFig9ListVsN(b *testing.B) {
	var r bench.Result
	var err error
	for i := 0; i < b.N; i++ {
		if r, err = bench.Fig9ListVsN(benchNs, 1000); err != nil {
			b.Fatal(err)
		}
	}
	reportFinal(b, r)
}

func BenchmarkFig10ListVsM(b *testing.B) {
	var r bench.Result
	var err error
	for i := 0; i < b.N; i++ {
		if r, err = bench.Fig10ListVsM(benchNs); err != nil {
			b.Fatal(err)
		}
	}
	reportFinal(b, r)
}

func BenchmarkFig11Copy(b *testing.B) {
	var r bench.Result
	var err error
	for i := 0; i < b.N; i++ {
		if r, err = bench.Fig11Copy(benchNs); err != nil {
			b.Fatal(err)
		}
	}
	reportFinal(b, r)
}

func BenchmarkFig12Mkdir(b *testing.B) {
	var r bench.Result
	var err error
	for i := 0; i < b.N; i++ {
		if r, err = bench.Fig12Mkdir(benchNs); err != nil {
			b.Fatal(err)
		}
	}
	reportFinal(b, r)
}

func BenchmarkFig13Access(b *testing.B) {
	var r bench.Result
	var err error
	for i := 0; i < b.N; i++ {
		if r, err = bench.Fig13Access([]int{1, 4, 8, 16, 20}); err != nil {
			b.Fatal(err)
		}
	}
	reportFinal(b, r)
}

func BenchmarkFig14ObjectCount(b *testing.B) {
	var r bench.Result
	var err error
	for i := 0; i < b.N; i++ {
		if r, err = bench.Fig14ObjectCount([]int{500, 2000}); err != nil {
			b.Fatal(err)
		}
	}
	reportFinal(b, r)
}

func BenchmarkFig15ObjectSize(b *testing.B) {
	var r bench.Result
	var err error
	for i := 0; i < b.N; i++ {
		if r, err = bench.Fig15ObjectSize([]int{500, 2000}); err != nil {
			b.Fatal(err)
		}
	}
	reportFinal(b, r)
}

func BenchmarkRTTAnalysis(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := bench.RTT(); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkHeadline(b *testing.B) {
	var r bench.Result
	var err error
	for i := 0; i < b.N; i++ {
		if r, err = bench.Headline(); err != nil {
			b.Fatal(err)
		}
	}
	reportFinal(b, r)
}
