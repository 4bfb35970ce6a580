package main

import (
	"encoding/json"
	"os"
	"reflect"
	"testing"
)

// TestBenchmarkJSONMatches keeps BENCHMARK.json at the repository root
// equal to the definitions the program reports by.
func TestBenchmarkJSONMatches(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		RunSeconds int `json:"run_seconds"`
		Workloads  []struct{ Name, Why string }
		EndToEnd   []metricDef `json:"end_to_end"`
		PerLayer   []metricDef `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &doc); err != nil {
		t.Fatal(err)
	}
	if doc.RunSeconds != refSeconds {
		t.Errorf("run_seconds = %d, workloads are sized for %d", doc.RunSeconds, refSeconds)
	}
	if len(doc.Workloads) != len(specs) {
		t.Fatalf("%d workloads listed, %d defined", len(doc.Workloads), len(specs))
	}
	for i, s := range specs {
		if doc.Workloads[i].Name != s.name || doc.Workloads[i].Why != s.why {
			t.Errorf("workload %d is %+v, defined as %s: %s", i, doc.Workloads[i], s.name, s.why)
		}
		if len(s.why) > 200 {
			t.Errorf("%s: why has %d characters, the limit is 200", s.name, len(s.why))
		}
	}
	if !reflect.DeepEqual(doc.EndToEnd, endToEnd) {
		t.Errorf("end_to_end = %+v, defined as %+v", doc.EndToEnd, endToEnd)
	}
	if !reflect.DeepEqual(doc.PerLayer, perLayer()) {
		t.Errorf("per_layer differs from the definitions")
	}
}
