package main

import (
	"encoding/json"
	"io"
	"os"
	"testing"
)

// benchmarkSpec is the part of BENCHMARK.json the test checks against.
type benchmarkSpec struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"per_layer"`
}

func loadSpec(t *testing.T) benchmarkSpec {
	t.Helper()
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var s benchmarkSpec
	if err := json.Unmarshal(b, &s); err != nil {
		t.Fatal(err)
	}
	return s
}

// shortest runs one pass of a workload (one untraced and one traced pass
// with trace set) and fails the test unless every output check passed.
func shortest(t *testing.T, workload string, trace bool) report {
	t.Helper()
	rep, err := run(config{workload: workload, seed: 3, seconds: 1e-3, trace: trace, workDir: t.TempDir(), log: io.Discard})
	if err != nil {
		t.Fatalf("%s: %v", workload, err)
	}
	if !rep.Correct || rep.Failed != 0 || rep.Attempted == 0 {
		t.Fatalf("%s: correct=%t attempted=%d failed=%d", workload, rep.Correct, rep.Attempted, rep.Failed)
	}
	return rep
}

func checkMetrics(t *testing.T, workload string, rep report, want []struct {
	Name string `json:"name"`
	Unit string `json:"unit"`
}) {
	t.Helper()
	if len(rep.Metrics) != len(want) {
		t.Errorf("%s: %d metrics, BENCHMARK.json names %d", workload, len(rep.Metrics), len(want))
	}
	for _, m := range want {
		got, ok := rep.Metrics[m.Name]
		if !ok {
			t.Errorf("%s: metric %s missing", workload, m.Name)
			continue
		}
		if got.Unit != m.Unit {
			t.Errorf("%s: %s in %q, BENCHMARK.json says %q", workload, m.Name, got.Unit, m.Unit)
		}
	}
}

// TestShortestRuns runs every workload once untraced and twice traced on
// one seed: each prints every metric BENCHMARK.json names with its unit
// and passes its output checks, and the two traced runs count the same
// simulated work.
func TestShortestRuns(t *testing.T) {
	spec := loadSpec(t)
	if len(spec.Workloads) != len(workloadNames) {
		t.Fatalf("BENCHMARK.json names %d workloads, perfbench runs %d", len(spec.Workloads), len(workloadNames))
	}
	for _, w := range spec.Workloads {
		t.Run(w.Name, func(t *testing.T) {
			checkMetrics(t, w.Name, shortest(t, w.Name, false), spec.EndToEnd)
			a := shortest(t, w.Name, true)
			checkMetrics(t, w.Name, a, spec.PerLayer)
			b := shortest(t, w.Name, true)
			for _, name := range []string{"eventsim.events_per_cell", "netsim.forwards_per_cell", "capture.records_per_cell"} {
				if a.Metrics[name].Value <= 0 || a.Metrics[name] != b.Metrics[name] {
					t.Errorf("%s: %s = %v then %v, want one positive count", w.Name, name, a.Metrics[name].Value, b.Metrics[name].Value)
				}
			}
		})
	}
}

// TestUnknownWorkload: a bad workload name is an error, not a result.
func TestUnknownWorkload(t *testing.T) {
	if _, err := run(config{workload: "nope", seed: 1, seconds: 1, workDir: t.TempDir(), log: io.Discard}); err == nil {
		t.Fatal("unknown workload ran")
	}
}
