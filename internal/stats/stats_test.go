package stats

import (
	"math"
	"testing"
	"testing/quick"
)

func almostEq(a, b float64) bool { return math.Abs(a-b) < 1e-9 }

func TestMeans(t *testing.T) {
	if Mean(nil) != 0 || GeoMean(nil) != 0 {
		t.Error("empty input should yield 0")
	}
	if !almostEq(Mean([]float64{1, 2, 3}), 2) {
		t.Error("Mean wrong")
	}
	if !almostEq(GeoMean([]float64{1, 4}), 2) {
		t.Error("GeoMean wrong")
	}
	if GeoMean([]float64{1, -1}) != 0 {
		t.Error("GeoMean with nonpositive input should be 0")
	}
}

// Property: geomean(xs) <= mean(xs) for positive inputs (AM-GM).
func TestAMGM(t *testing.T) {
	f := func(raw []uint16) bool {
		var xs []float64
		for _, r := range raw {
			xs = append(xs, float64(r)+1)
		}
		if len(xs) == 0 {
			return true
		}
		return GeoMean(xs) <= Mean(xs)+1e-9
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestHistogramBuckets(t *testing.T) {
	var h Histogram
	h.Add(0)
	h.Add(1)
	h.Add(2)
	h.Add(3)
	h.Add(100)
	if h.Total() != 5 || h.Max() != 100 {
		t.Fatalf("total=%d max=%d", h.Total(), h.Max())
	}
	c0, lo, hi := h.Bucket(0)
	if c0 != 1 || lo != 0 || hi != 0 {
		t.Errorf("bucket0 = %d [%d,%d]", c0, lo, hi)
	}
	c1, lo, hi := h.Bucket(1)
	if c1 != 1 || lo != 1 || hi != 1 {
		t.Errorf("bucket1 = %d [%d,%d]", c1, lo, hi)
	}
	c2, _, _ := h.Bucket(2)
	if c2 != 2 { // values 2 and 3
		t.Errorf("bucket2 = %d, want 2", c2)
	}
	if !almostEq(h.FractionAtMost(3), 0.8) {
		t.Errorf("FractionAtMost(3) = %f", h.FractionAtMost(3))
	}
	if h.String() == "" {
		t.Error("String empty")
	}
}

func TestHistogramMean(t *testing.T) {
	var h Histogram
	for _, v := range []uint64{10, 20, 30} {
		h.Add(v)
	}
	if !almostEq(h.Mean(), 20) {
		t.Errorf("Mean = %f", h.Mean())
	}
}

func TestTimeSeriesModes(t *testing.T) {
	sum := NewCountSeries(100)
	sum.Record(10, 1)
	sum.Record(20, 1)
	sum.Record(150, 1)
	if v := sum.Values(); v[0] != 2 || v[1] != 1 {
		t.Errorf("sum series %v", v)
	}
	max := NewMaxSeries(100)
	max.Record(10, 5)
	max.Record(20, 3)
	if max.Values()[0] != 5 {
		t.Errorf("max series %v", max.Values())
	}
	if sum.Peak() != 2 {
		t.Errorf("Peak = %f", sum.Peak())
	}
}

func TestSparkline(t *testing.T) {
	ts := NewCountSeries(10)
	for i := uint64(0); i < 100; i++ {
		ts.Record(i, float64(i))
	}
	s := ts.Sparkline(20)
	if len([]rune(s)) != 20 {
		t.Errorf("sparkline width %d", len([]rune(s)))
	}
	if (&TimeSeries{Window: 10}).Sparkline(10) != "" {
		t.Error("empty series sparkline should be empty")
	}
}

func TestReuseTracker(t *testing.T) {
	r := NewReuseTracker()
	// Stream: A B A -> reuse distance of A is 2.
	r.Touch(1)
	r.Touch(2)
	r.Touch(1)
	if r.Requests() != 3 || r.UniquePages() != 2 {
		t.Fatalf("requests=%d unique=%d", r.Requests(), r.UniquePages())
	}
	if r.Distances.Total() != 1 {
		t.Fatalf("distances recorded = %d", r.Distances.Total())
	}
	if r.Distances.Max() != 2 {
		t.Errorf("distance = %d, want 2", r.Distances.Max())
	}
	if !almostEq(r.SingleTouchFraction(), 0.5) {
		t.Errorf("single-touch fraction = %f", r.SingleTouchFraction())
	}
	ch := r.CountHistogram()
	if ch.Total() != 2 {
		t.Errorf("count histogram total = %d", ch.Total())
	}
}

func TestSpatialTracker(t *testing.T) {
	var s SpatialTracker
	s.Touch(100)
	s.Touch(101) // distance 1
	s.Touch(99)  // distance 2
	s.Touch(200) // distance 101
	if s.Distances.Total() != 3 {
		t.Fatalf("pairs = %d", s.Distances.Total())
	}
	if !almostEq(s.FractionWithin(1), 1.0/3) {
		t.Errorf("within 1 = %f", s.FractionWithin(1))
	}
	if !almostEq(s.FractionWithin(4), 2.0/3) {
		t.Errorf("within 4 = %f", s.FractionWithin(4))
	}
}

func TestBreakdown(t *testing.T) {
	var b BreakdownAccumulator
	b.Add(100, 200, 500)
	b.Add(300, 0, 500)
	pre, q, w := b.Means()
	if !almostEq(pre, 200) || !almostEq(q, 100) || !almostEq(w, 500) {
		t.Errorf("means = %f,%f,%f", pre, q, w)
	}
	pp, qp, wp := b.Percentages()
	if !almostEq(pp+qp+wp, 100) {
		t.Errorf("percentages sum to %f", pp+qp+wp)
	}
	var empty BreakdownAccumulator
	if p, q, w := empty.Percentages(); p != 0 || q != 0 || w != 0 {
		t.Error("empty breakdown should be zeros")
	}
}
