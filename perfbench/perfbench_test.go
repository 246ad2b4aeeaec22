package main

import (
	"encoding/json"
	"fmt"
	"os"
	"reflect"
	"sort"
	"strings"
	"testing"
	"time"
)

func TestTailRule(t *testing.T) {
	cases := []struct {
		n      int
		p      float64
		beyond int
	}{
		{1000, 99, 10},
		{999, 95, 49},
		{200, 95, 10},
		{199, 90, 19},
		{100, 90, 10},
		{99, 90, 9}, // under-sampled: no candidate qualifies
		{1, 90, 0},
	}
	for _, c := range cases {
		xs := make([]float64, c.n)
		for i := range xs {
			xs[i] = float64(i + 1)
		}
		got := tailOf(xs)
		if got.P != c.p || got.Beyond != c.beyond || got.N != c.n {
			t.Errorf("n=%d: got p%g with %d beyond, want p%g with %d", c.n, got.P, got.Beyond, c.p, c.beyond)
		}
		// With samples 1..n, exactly Beyond samples exceed the value.
		if above := c.n - int(got.Value); above != got.Beyond {
			t.Errorf("n=%d: %d samples above p%g = %g, reported %d", c.n, above, got.P, got.Value, got.Beyond)
		}
	}
}

func TestScheduleDeterministic(t *testing.T) {
	for name, wl := range workloads {
		a := newSchedules(wl, 7, 10, 2, 2304)
		b := newSchedules(wl, 7, 10, 2, 2304)
		if !reflect.DeepEqual(a.light, b.light) || !reflect.DeepEqual(a.heavy, b.heavy) {
			t.Errorf("%s: open-loop schedules differ for one seed", name)
		}
		if !reflect.DeepEqual(a.lightKeep, b.lightKeep) || !reflect.DeepEqual(a.heavyKeep, b.heavyKeep) {
			t.Errorf("%s: oracle samples differ for one seed", name)
		}
		for w := range a.closed {
			ra := newRequest(a.closed[w], wl.periods, 2304)
			rb := newRequest(b.closed[w], wl.periods, 2304)
			if !reflect.DeepEqual(ra, rb) {
				t.Errorf("%s: closed-loop stream %d differs for one seed", name, w)
			}
		}
		c := newSchedules(wl, 8, 10, 2, 2304)
		if reflect.DeepEqual(a.heavy, c.heavy) {
			t.Errorf("%s: seeds 7 and 8 gave the same heavy schedule", name)
		}
	}
}

func TestOpenScheduleShape(t *testing.T) {
	wl := workloads["serve-hour"]
	s := newSchedules(wl, 3, 20, 2, 2304)
	var phases []struct {
		reqs []request
		rate float64
	}
	total := 0
	for k := 0; k < rounds; k++ {
		phases = append(phases, struct {
			reqs []request
			rate float64
		}{s.light[k], wl.lightRPS}, struct {
			reqs []request
			rate float64
		}{s.heavy[k], wl.heavyRPS})
		total += len(s.heavy[k])
	}
	if total < minOpenRequests {
		t.Errorf("heavy phase has %d requests, want at least %d", total, minOpenRequests)
	}
	for _, ph := range phases {
		n := len(ph.reqs)
		span := time.Duration(float64(n) / ph.rate * float64(time.Second))
		if !sort.SliceIsSorted(ph.reqs, func(i, j int) bool { return ph.reqs[i].Due < ph.reqs[j].Due }) {
			t.Error("due times are not sorted")
		}
		seen := map[int64]bool{}
		for _, r := range ph.reqs {
			if r.Due < 0 || r.Due >= span {
				t.Errorf("due %v outside [0, %v)", r.Due, span)
			}
			if r.Seed == 0 || seen[r.Seed] {
				t.Errorf("seed %d is zero or repeated", r.Seed)
			}
			seen[r.Seed] = true
			if r.Start < 2304 || r.Start >= 2304+startSpread || r.Periods != wl.periods {
				t.Errorf("window %+v outside the served range", r.window())
			}
		}
	}
}

func TestMeanOverlap(t *testing.T) {
	t0 := time.Unix(0, 0)
	at := func(lo, hi int) interval {
		return interval{t0.Add(time.Duration(lo) * time.Millisecond), t0.Add(time.Duration(hi) * time.Millisecond)}
	}
	cases := []struct {
		iv   []interval
		want float64
	}{
		{[]interval{at(0, 10), at(20, 30)}, 1},
		{[]interval{at(0, 10), at(0, 10)}, 2},
		{[]interval{at(5, 15), at(0, 10)}, 20.0 / 15},
	}
	for _, c := range cases {
		if got := meanOverlap(c.iv); got != c.want {
			t.Errorf("meanOverlap = %g, want %g", got, c.want)
		}
	}
}

// benchmarkFile mirrors BENCHMARK.json at the repository root.
type benchmarkFile struct {
	Workloads []struct{ Name, Why string } `json:"workloads"`
	EndToEnd  []struct {
		Name, Unit, Better string
		Bound              float64
	} `json:"end_to_end"`
	PerLayer []struct{ Name, Unit, Better string } `json:"per_layer"`
}

func TestMetricNamesMatchBenchmarkJSON(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var bf benchmarkFile
	if err := json.Unmarshal(data, &bf); err != nil {
		t.Fatal(err)
	}
	var e2e, layers []metricDef
	for _, m := range bf.EndToEnd {
		e2e = append(e2e, metricDef{m.Name, m.Unit})
	}
	for _, m := range bf.PerLayer {
		layers = append(layers, metricDef{m.Name, m.Unit})
	}
	if !reflect.DeepEqual(e2e, endToEnd) {
		t.Errorf("end_to_end in BENCHMARK.json %v, benchmark reports %v", e2e, endToEnd)
	}
	if !reflect.DeepEqual(layers, perLayer) {
		t.Errorf("per_layer in BENCHMARK.json %v, benchmark reports %v", layers, perLayer)
	}
	if len(bf.Workloads) != len(workloads) {
		t.Errorf("BENCHMARK.json lists %d workloads, benchmark has %d", len(bf.Workloads), len(workloads))
	}
	for _, w := range bf.Workloads {
		wl, ok := workloads[w.Name]
		if !ok {
			t.Errorf("workload %s is not in the benchmark", w.Name)
			continue
		}
		// The fixed rates are recorded in the workload's why.
		for _, rate := range []float64{wl.lightRPS, wl.heavyRPS} {
			if !strings.Contains(w.Why, fmt.Sprintf(" %g ", rate)) {
				t.Errorf("%s: why %q does not state the rate %g", w.Name, w.Why, rate)
			}
		}
	}
}

func TestTrainWindows(t *testing.T) {
	// 15144 tokens in 8 segments of 1893 steps, cut into 64-step windows.
	if got := trainWindows(15144, 64, 8); got != 30 {
		t.Errorf("trainWindows = %d, want 30", got)
	}
	if got := trainWindows(5, 64, 8); got != 1 {
		t.Errorf("trainWindows with fewer tokens than rows = %d, want 1", got)
	}
}
