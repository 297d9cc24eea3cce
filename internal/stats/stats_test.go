package stats

import (
	"math"
	"testing"
	"testing/quick"
)

func almostEqual(a, b float64) bool {
	return math.Abs(a-b) < 1e-9
}

func TestMean(t *testing.T) {
	tests := []struct {
		name string
		in   []float64
		want float64
	}{
		{"empty", nil, 0},
		{"single", []float64{4}, 4},
		{"pair", []float64{2, 4}, 3},
		{"negatives", []float64{-1, 1}, 0},
		{"mixed", []float64{1, 2, 3, 4, 5}, 3},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			if got := Mean(tt.in); !almostEqual(got, tt.want) {
				t.Errorf("Mean(%v) = %v, want %v", tt.in, got, tt.want)
			}
		})
	}
}

func TestStdDev(t *testing.T) {
	tests := []struct {
		name string
		in   []float64
		want float64
	}{
		{"empty", nil, 0},
		{"single", []float64{7}, 0},
		{"constant", []float64{5, 5, 5, 5}, 0},
		{"spread", []float64{2, 4, 4, 4, 5, 5, 7, 9}, 2},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			if got := StdDev(tt.in); !almostEqual(got, tt.want) {
				t.Errorf("StdDev(%v) = %v, want %v", tt.in, got, tt.want)
			}
		})
	}
}

func TestMinMax(t *testing.T) {
	if _, _, err := minMax(nil); err != ErrEmpty {
		t.Fatalf("minMax(nil) err = %v, want ErrEmpty", err)
	}
	min, max, err := minMax([]float64{3, -1, 4, 1, 5})
	if err != nil {
		t.Fatal(err)
	}
	if min != -1 || max != 5 {
		t.Errorf("minMax = (%v,%v), want (-1,5)", min, max)
	}
}

func TestFluctuation(t *testing.T) {
	tests := []struct {
		name string
		in   []float64
		want []float64
	}{
		{"short", []float64{1}, nil},
		{"doubling", []float64{1, 2}, []float64{100}},
		{"halving", []float64{2, 1}, []float64{-50}},
		{"flat", []float64{5, 5, 5}, []float64{0, 0}},
		{"zero to zero", []float64{0, 0}, []float64{0}},
		{"zero to nonzero", []float64{0, 3}, []float64{100}},
		{"nonzero to zero", []float64{4, 0}, []float64{-100}},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			got := Fluctuation(tt.in)
			if len(got) != len(tt.want) {
				t.Fatalf("Fluctuation(%v) = %v, want %v", tt.in, got, tt.want)
			}
			for i := range got {
				if !almostEqual(got[i], tt.want[i]) {
					t.Errorf("Fluctuation(%v)[%d] = %v, want %v", tt.in, i, got[i], tt.want[i])
				}
			}
		})
	}
}

func TestFluctuationLength(t *testing.T) {
	if err := quick.Check(func(xs []float64) bool {
		fl := Fluctuation(xs)
		if len(xs) < 2 {
			return fl == nil
		}
		return len(fl) == len(xs)-1
	}, nil); err != nil {
		t.Error(err)
	}
}

func TestTrim(t *testing.T) {
	xs := make([]float64, 100)
	for i := range xs {
		xs[i] = float64(i)
	}
	got := Trim(xs, 0.10)
	if len(got) != 80 {
		t.Fatalf("Trim kept %d elements, want 80", len(got))
	}
	if got[0] != 10 || got[len(got)-1] != 89 {
		t.Errorf("Trim bounds = [%v,%v], want [10,89]", got[0], got[len(got)-1])
	}
}

func TestTrimSmall(t *testing.T) {
	// Trimming must never discard everything.
	for n := 1; n <= 5; n++ {
		xs := make([]float64, n)
		if got := Trim(xs, 0.49); len(got) == 0 {
			t.Errorf("Trim of %d elements returned empty", n)
		}
	}
}

func TestTrimClamps(t *testing.T) {
	xs := []float64{1, 2, 3, 4}
	if got := Trim(xs, -1); len(got) != 4 {
		t.Errorf("Trim with negative frac kept %d, want 4", len(got))
	}
	if got := Trim(xs, 0.9); len(got) == 0 {
		t.Error("Trim with frac>=0.5 returned empty")
	}
}

func TestTrimBoundsMatchesTrim(t *testing.T) {
	if err := quick.Check(func(raw []float64, fracSeed uint8) bool {
		frac := float64(fracSeed%60) / 100 // 0.00 .. 0.59
		lo, hi := TrimBounds(len(raw), frac)
		trimmed := Trim(raw, frac)
		if len(raw) == 0 {
			return lo == 0 && hi == 0 && trimmed == nil
		}
		return hi-lo == len(trimmed) && lo >= 0 && hi <= len(raw)
	}, nil); err != nil {
		t.Error(err)
	}
}

func TestRange(t *testing.T) {
	r := Range{Min: 3, Max: 9}
	if r.Width() != 6 {
		t.Errorf("Width = %v, want 6", r.Width())
	}
	u := r.Union(Range{Min: -2, Max: 4})
	if u.Min != -2 || u.Max != 9 {
		t.Errorf("Union = %+v, want {-2 9}", u)
	}
}

func TestRangeUnionProperties(t *testing.T) {
	// Union is commutative and contains both operands.
	if err := quick.Check(func(a, b, c, d float64) bool {
		r := Range{Min: math.Min(a, b), Max: math.Max(a, b)}
		s := Range{Min: math.Min(c, d), Max: math.Max(c, d)}
		u1, u2 := r.Union(s), s.Union(r)
		return u1 == u2 &&
			u1.Min <= r.Min && r.Max <= u1.Max &&
			u1.Min <= s.Min && s.Max <= u1.Max
	}, nil); err != nil {
		t.Error(err)
	}
}

func TestRangeOf(t *testing.T) {
	if _, err := RangeOf(nil); err != ErrEmpty {
		t.Fatalf("RangeOf(nil) err = %v, want ErrEmpty", err)
	}
	r, err := RangeOf([]float64{2, 8, 4})
	if err != nil {
		t.Fatal(err)
	}
	if r.Min != 2 || r.Max != 8 {
		t.Errorf("RangeOf = %+v, want {2 8}", r)
	}
}

func TestSummarize(t *testing.T) {
	if _, err := Summarize(nil); err != ErrEmpty {
		t.Fatalf("Summarize(nil) err = %v, want ErrEmpty", err)
	}
	// A perfectly flat series: zero change, zero deviation.
	s, err := Summarize([]float64{10, 10, 10, 10})
	if err != nil {
		t.Fatal(err)
	}
	if s.AvgChange != 0 || s.StdDevChange != 0 {
		t.Errorf("flat series summary = %+v, want zero change", s)
	}
	if s.Observed.Min != 10 || s.Observed.Max != 10 {
		t.Errorf("flat series observed = %+v", s.Observed)
	}
	if s.Samples != 4 {
		t.Errorf("Samples = %d, want 4", s.Samples)
	}
}

func TestSummarizeGrowth(t *testing.T) {
	// A steadily growing series has positive average change.
	s, err := Summarize([]float64{10, 11, 12.1, 13.31})
	if err != nil {
		t.Fatal(err)
	}
	if !almostEqual(s.AvgChange, 10) {
		t.Errorf("AvgChange = %v, want 10", s.AvgChange)
	}
	if s.StdDevChange > 1e-9 {
		t.Errorf("StdDevChange = %v, want ~0 for constant-rate growth", s.StdDevChange)
	}
}

func BenchmarkFluctuation(b *testing.B) {
	xs := make([]float64, 10000)
	for i := range xs {
		xs[i] = float64(i%37) + 1
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		Fluctuation(xs)
	}
}

func BenchmarkSummarize(b *testing.B) {
	xs := make([]float64, 10000)
	for i := range xs {
		xs[i] = 50 + math.Sin(float64(i)/100)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Summarize(xs); err != nil {
			b.Fatal(err)
		}
	}
}

// TestTrimCountProperties pins the single rounding rule shared by the
// summarizer's trim and the detector's startup-skip window.
func TestTrimCountProperties(t *testing.T) {
	fracs := []float64{-1, -0.3, 0, 0.05, 0.1, 0.25, 0.4999, 0.5, 0.75, 1, 2.5}
	for n := 0; n <= 60; n++ {
		xs := make([]float64, n)
		for i := range xs {
			xs[i] = float64(i)
		}
		for _, frac := range fracs {
			k := TrimCount(n, frac)
			if k < 0 {
				t.Fatalf("TrimCount(%d, %v) = %d < 0", n, frac, k)
			}
			if n >= 1 && 2*k >= n {
				t.Fatalf("TrimCount(%d, %v) = %d empties the series", n, frac, k)
			}
			lo, hi := TrimBounds(n, frac)
			if lo != k || hi != n-k {
				t.Fatalf("TrimBounds(%d, %v) = (%d, %d), want (%d, %d)", n, frac, lo, hi, k, n-k)
			}
			trimmed := Trim(xs, frac)
			if n == 0 {
				if trimmed != nil {
					t.Fatalf("Trim(empty) = %v", trimmed)
				}
				continue
			}
			if len(trimmed) != n-2*k {
				t.Fatalf("len(Trim(%d, %v)) = %d, want %d", n, frac, len(trimmed), n-2*k)
			}
			if trimmed[0] != float64(k) || trimmed[len(trimmed)-1] != float64(n-k-1) {
				t.Fatalf("Trim(%d, %v) kept [%v, %v], want [%d, %d]",
					n, frac, trimmed[0], trimmed[len(trimmed)-1], k, n-k-1)
			}
		}
	}
}
