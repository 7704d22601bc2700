package oracle

import (
	"math"
	"testing"
	"testing/quick"
)

func TestMetricCapsAtTarget(t *testing.T) {
	p := Point{Rate: 100, Power: 10}
	if got := Metric(p, 50); math.Abs(got-5) > 1e-12 {
		t.Fatalf("Metric = %g, want 5 (capped)", got)
	}
	if got := Metric(Point{Rate: 20, Power: 10}, 50); math.Abs(got-2) > 1e-12 {
		t.Fatalf("Metric = %g, want 2 (below target)", got)
	}
	if Metric(Point{Rate: 5, Power: 0}, 5) != 0 {
		t.Fatal("zero power must yield 0, not Inf")
	}
}

func TestBestMeetingPicksCheapestSufficient(t *testing.T) {
	pts := []Point{
		{Rate: 10, Power: 1},
		{Rate: 55, Power: 4},  // meets, cheapest
		{Rate: 60, Power: 5},  // meets, pricier
		{Rate: 90, Power: 12}, // meets, priciest
	}
	idx, ok := BestMeeting(pts, 50)
	if !ok || idx != 1 {
		t.Fatalf("BestMeeting = (%d,%v), want (1,true)", idx, ok)
	}
}

func TestBestMeetingFallsBackToFastest(t *testing.T) {
	pts := []Point{{Rate: 10, Power: 1}, {Rate: 30, Power: 2}}
	idx, ok := BestMeeting(pts, 100)
	if ok || idx != 1 {
		t.Fatalf("BestMeeting = (%d,%v), want fastest with ok=false", idx, ok)
	}
}

func TestBestMeetingOptimalProperty(t *testing.T) {
	// Property: the chosen config has minimal power among those meeting
	// the target; when ok=false, nothing meets the target.
	f := func(raw []struct{ R, P uint8 }, tsel uint8) bool {
		if len(raw) == 0 {
			return true
		}
		pts := make([]Point, len(raw))
		for i, r := range raw {
			pts[i] = Point{Rate: float64(r.R), Power: float64(r.P) + 1}
		}
		target := float64(tsel)
		idx, ok := BestMeeting(pts, target)
		if idx < 0 || idx >= len(pts) {
			return false
		}
		if ok {
			if pts[idx].Rate < target {
				return false
			}
			for _, p := range pts {
				if p.Rate >= target && p.Power < pts[idx].Power {
					return false
				}
			}
		} else {
			for _, p := range pts {
				if p.Rate >= target {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

// Table-driven edge cases: empty inputs, the no-meeting fallback, and
// NaN guards. The selection procedures feed the scenario scorer, which
// must never let a corrupt sample pick a configuration or crash on an
// empty action space.
func TestBestMeetingEdgeCases(t *testing.T) {
	nan := math.NaN()
	cases := []struct {
		name    string
		points  []Point
		target  float64
		wantIdx int
		wantOK  bool
	}{
		{"empty", nil, 10, -1, false},
		{"single meets", []Point{{Rate: 12, Power: 3}}, 10, 0, true},
		{"single misses", []Point{{Rate: 5, Power: 3}}, 10, 0, false},
		{"all NaN rates", []Point{{Rate: nan, Power: 1}, {Rate: nan, Power: 2}}, 10, -1, false},
		{"NaN rate skipped", []Point{{Rate: nan, Power: 1}, {Rate: 20, Power: 5}}, 10, 1, true},
		{"NaN target falls back", []Point{{Rate: 5, Power: 1}, {Rate: 30, Power: 2}}, nan, 1, false},
		{"zero target met by zero rate", []Point{{Rate: 0, Power: 1}}, 0, 0, true},
	}
	for _, tc := range cases {
		idx, ok := BestMeeting(tc.points, tc.target)
		if idx != tc.wantIdx || ok != tc.wantOK {
			t.Errorf("%s: BestMeeting = (%d, %v), want (%d, %v)", tc.name, idx, ok, tc.wantIdx, tc.wantOK)
		}
	}
}

func TestBestMeetingAllEdgeCases(t *testing.T) {
	nan := math.NaN()
	cases := []struct {
		name    string
		points  [][]Point
		targets []float64
		want    int
	}{
		{"no apps", nil, nil, -1},
		{"apps without configs", [][]Point{{}, {}}, []float64{1, 1}, -1},
		{
			"meets all beats meets most",
			[][]Point{
				{{Rate: 10, Power: 1}, {Rate: 50, Power: 9}},
				{{Rate: 1, Power: 1}, {Rate: 40, Power: 9}},
			},
			[]float64{5, 5},
			1,
		},
		{
			"tie on met resolved by power",
			[][]Point{
				{{Rate: 10, Power: 5}, {Rate: 10, Power: 2}},
			},
			[]float64{5},
			1,
		},
		{
			"NaN rate never counts as met",
			[][]Point{
				{{Rate: nan, Power: 1}, {Rate: 10, Power: 9}},
			},
			[]float64{5},
			1,
		},
	}
	for _, tc := range cases {
		if got := BestMeetingAll(tc.points, tc.targets); got != tc.want {
			t.Errorf("%s: BestMeetingAll = %d, want %d", tc.name, got, tc.want)
		}
	}
}

func TestMetricNaNGuards(t *testing.T) {
	nan := math.NaN()
	cases := []struct {
		name   string
		p      Point
		target float64
	}{
		{"NaN rate", Point{Rate: nan, Power: 2}, 10},
		{"NaN power", Point{Rate: 5, Power: nan}, 10},
		{"NaN target", Point{Rate: 5, Power: 2}, nan},
	}
	for _, tc := range cases {
		if got := Metric(tc.p, tc.target); got != 0 {
			t.Errorf("%s: Metric = %g, want 0", tc.name, got)
		}
	}
}
