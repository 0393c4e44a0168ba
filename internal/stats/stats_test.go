package stats

import (
	"math"
	"testing"
	"testing/quick"
)

func almost(a, b float64) bool { return math.Abs(a-b) < 1e-9 }

func TestMean(t *testing.T) {
	if Mean(nil) != 0 {
		t.Fatal("empty mean should be 0")
	}
	if !almost(Mean([]float64{1, 2, 3, 4}), 2.5) {
		t.Fatal("mean wrong")
	}
}

func TestVarianceStdDev(t *testing.T) {
	xs := []float64{2, 4, 4, 4, 5, 5, 7, 9}
	if !almost(Variance(xs), 4) {
		t.Fatalf("variance = %v, want 4", Variance(xs))
	}
	if Variance(nil) != 0 {
		t.Fatal("empty variance should be 0")
	}
}

func TestPearsonPerfect(t *testing.T) {
	xs := []float64{1, 2, 3, 4, 5}
	ys := []float64{3, 5, 7, 9, 11} // y = 2x + 1
	r, err := Pearson(xs, ys)
	if err != nil {
		t.Fatal(err)
	}
	if !almost(r, 1) {
		t.Fatalf("r = %v, want 1", r)
	}
	neg := []float64{11, 9, 7, 5, 3}
	r, _ = Pearson(xs, neg)
	if !almost(r, -1) {
		t.Fatalf("r = %v, want -1", r)
	}
}

func TestPearsonErrors(t *testing.T) {
	if _, err := Pearson([]float64{1}, []float64{1, 2}); err == nil {
		t.Error("mismatched lengths accepted")
	}
	if _, err := Pearson([]float64{1}, []float64{2}); err == nil {
		t.Error("single point accepted")
	}
	if _, err := Pearson([]float64{1, 1}, []float64{1, 2}); err == nil {
		t.Error("zero-variance x accepted")
	}
}

// Property: correlation is symmetric and within [-1, 1].
func TestPearsonProperty(t *testing.T) {
	f := func(raw []float64) bool {
		if len(raw) < 4 {
			return true
		}
		xs, ys := raw[:len(raw)/2], raw[len(raw)/2:len(raw)/2*2]
		for _, v := range raw {
			if math.IsNaN(v) || math.IsInf(v, 0) || math.Abs(v) > 1e100 {
				return true
			}
		}
		r1, err1 := Pearson(xs, ys)
		r2, err2 := Pearson(ys, xs)
		if err1 != nil || err2 != nil {
			return (err1 == nil) == (err2 == nil)
		}
		return math.Abs(r1-r2) < 1e-9 && r1 >= -1.0000001 && r1 <= 1.0000001
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestLinearFit(t *testing.T) {
	xs := []float64{0, 1, 2, 3}
	ys := []float64{1, 3, 5, 7} // y = 2x + 1
	slope, intercept, err := LinearFit(xs, ys)
	if err != nil {
		t.Fatal(err)
	}
	if !almost(slope, 2) || !almost(intercept, 1) {
		t.Fatalf("fit = %v, %v", slope, intercept)
	}
	if _, _, err := LinearFit([]float64{1, 1}, []float64{1, 2}); err == nil {
		t.Error("degenerate x accepted")
	}
	if _, _, err := LinearFit([]float64{1}, []float64{1}); err == nil {
		t.Error("single point accepted")
	}
}

func TestGeoMean(t *testing.T) {
	if !almost(GeoMean([]float64{1, 100}), 10) {
		t.Fatal("geomean wrong")
	}
	if GeoMean(nil) != 0 {
		t.Fatal("empty geomean should be 0")
	}
	if GeoMean([]float64{1, 0}) != 0 {
		t.Fatal("nonpositive input should yield 0")
	}
}

func TestMaxIndex(t *testing.T) {
	if MaxIndex(nil) != -1 {
		t.Fatal("empty should be -1")
	}
	if MaxIndex([]float64{1, 5, 3}) != 1 {
		t.Fatal("max index wrong")
	}
}
