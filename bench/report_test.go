package main

import (
	"encoding/json"
	"os"
	"reflect"
	"regexp"
	"testing"
)

// The benchmark contract's rules for names and units.
var (
	nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitRE = regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
)

func TestNamesAndUnitsAreWellFormed(t *testing.T) {
	seen := make(map[string]bool)
	check := func(name string) {
		if !nameRE.MatchString(name) {
			t.Errorf("name %q is malformed", name)
		}
		if seen[name] {
			t.Errorf("name %q is used twice", name)
		}
		seen[name] = true
	}
	for _, w := range workloads {
		check(w.name)
		if len(w.why) > 200 {
			t.Errorf("%s: why is %d characters", w.name, len(w.why))
		}
	}
	for _, list := range [][]metricSpec{endToEndMetrics, perLayerMetrics} {
		for _, m := range list {
			check(m.Name)
			if !unitRE.MatchString(m.Unit) {
				t.Errorf("%s: unit %q is malformed", m.Name, m.Unit)
			}
			if m.Better != "lower" && m.Better != "higher" {
				t.Errorf("%s: better is %q", m.Name, m.Better)
			}
		}
	}
	for _, m := range endToEndMetrics {
		if m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("%s: bound %v is outside (0, 0.25]", m.Name, m.Bound)
		}
	}
}

// BENCHMARK.json is what the driver reads; the lists in spec.go are what
// the program prints. They must not drift apart.
func TestBenchmarkFileMatchesTheProgram(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var raw map[string]json.RawMessage
	if err := json.Unmarshal(data, &raw); err != nil {
		t.Fatal(err)
	}
	for _, key := range []string{"command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"} {
		if _, ok := raw[key]; !ok {
			t.Errorf("BENCHMARK.json lacks %q", key)
		}
		delete(raw, key)
	}
	for key := range raw {
		t.Errorf("BENCHMARK.json has the extra key %q", key)
	}
	var bf benchmarkFile
	if err := json.Unmarshal(data, &bf); err != nil {
		t.Fatal(err)
	}
	if bf.RunSeconds != defaultSeconds {
		t.Errorf("run_seconds is %d, the program's default window %d", bf.RunSeconds, defaultSeconds)
	}
	var want []workloadID
	for _, w := range workloads {
		want = append(want, workloadID{w.name, w.why})
	}
	if !reflect.DeepEqual(bf.Workloads, want) {
		t.Errorf("workloads differ:\n got %v\nwant %v", bf.Workloads, want)
	}
	if !reflect.DeepEqual(bf.EndToEnd, endToEndMetrics) {
		t.Errorf("end_to_end differs:\n got %v\nwant %v", bf.EndToEnd, endToEndMetrics)
	}
	if !reflect.DeepEqual(bf.PerLayer, perLayerMetrics) {
		t.Errorf("per_layer differs:\n got %v\nwant %v", bf.PerLayer, perLayerMetrics)
	}
}

func TestResultLineSchema(t *testing.T) {
	for _, traced := range []bool{false, true} {
		res := &runResult{Traced: traced, Correct: true, Attempted: 10, Metrics: map[string]float64{"p50_ms": 1.5, "not_a_metric": 2}}
		data, err := json.Marshal(newResultLine(res))
		if err != nil {
			t.Fatal(err)
		}
		var top map[string]json.RawMessage
		if err := json.Unmarshal(data, &top); err != nil {
			t.Fatal(err)
		}
		if len(top) != 4 || top["correct"] == nil || top["attempted"] == nil || top["failed"] == nil || top["metrics"] == nil {
			t.Fatalf("result line keys: %s", data)
		}
		var got map[string]metricValue
		if err := json.Unmarshal(top["metrics"], &got); err != nil {
			t.Fatal(err)
		}
		want := metricsOf(traced)
		if len(got) != len(want) {
			t.Errorf("traced=%v: %d metrics, want %d", traced, len(got), len(want))
		}
		for _, m := range want {
			if v, ok := got[m.Name]; !ok || v.Unit != m.Unit {
				t.Errorf("traced=%v: metric %s is %+v", traced, m.Name, v)
			}
		}
	}
}

func TestQuartilesMatchPythonStatistics(t *testing.T) {
	// statistics.quantiles([1, 2, 4, 7, 11, 16, 22, 29, 37, 46], n=4)
	// == [3.5, 13.5, 31.0]
	q1, q3 := quartiles([]float64{46, 1, 2, 4, 7, 11, 16, 22, 29, 37})
	if q1 != 3.5 || q3 != 31 {
		t.Errorf("quartiles %v %v, want 3.5 31", q1, q3)
	}
}
