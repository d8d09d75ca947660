package main

import (
	"bytes"
	"encoding/json"
	"os"
	"reflect"
	"strings"
	"testing"

	"repro/internal/sim"
)

// smokeHorizon is a per-repetition horizon per workload, short but long
// enough for the end-to-end report's 100 time-to-pair samples.
var smokeHorizon = map[string]sim.Duration{
	"link-overload":     400 * sim.Millisecond,
	"e2e-grid":          600 * sim.Millisecond,
	"dragonfly-sharded": 60 * sim.Millisecond,
}

// benchmarkFile is the part of BENCHMARK.json the smoke test checks.
type benchmarkFile struct {
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

func readBenchmarkFile(t *testing.T) benchmarkFile {
	t.Helper()
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var b benchmarkFile
	if err := json.Unmarshal(data, &b); err != nil {
		t.Fatal(err)
	}
	return b
}

// runResult runs the command's report on a short window and parses its
// result line.
func runResult(t *testing.T, o options) result {
	t.Helper()
	var out bytes.Buffer
	if err := run(o, &out); err != nil {
		t.Fatalf("%s trace=%t: %v\n%s", o.workload, o.trace, err, out.String())
	}
	lines := strings.Split(strings.TrimSpace(out.String()), "\n")
	var res result
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
		t.Fatalf("last line is not the result: %v", err)
	}
	if !res.Correct || res.Attempted < 1 || res.Failed != 0 {
		t.Fatalf("result %+v", res)
	}
	return res
}

// TestMetricsEmitted checks that both reports of every workload emit exactly
// the metrics BENCHMARK.json names, each with its unit.
func TestMetricsEmitted(t *testing.T) {
	b := readBenchmarkFile(t)
	if len(b.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json lists %d workloads, the command has %d", len(b.Workloads), len(workloads))
	}
	for i, bw := range b.Workloads {
		if bw.Name != workloads[i].name {
			t.Fatalf("workload %d: BENCHMARK.json says %s, the command %s", i, bw.Name, workloads[i].name)
		}
	}
	for _, w := range workloads {
		for _, traced := range []bool{false, true} {
			want := map[string]string{}
			for _, m := range b.EndToEnd {
				want[m.Name] = m.Unit
			}
			if traced {
				want = map[string]string{}
				for _, m := range b.PerLayer {
					want[m.Name] = m.Unit
				}
			}
			res := runResult(t, options{workload: w.name, seed: 1, seconds: 0.01, trace: traced, out: t.TempDir(), horizon: smokeHorizon[w.name]})
			got := map[string]string{}
			for name, m := range res.Metrics {
				got[name] = m.Unit
			}
			if !reflect.DeepEqual(got, want) {
				t.Errorf("%s trace=%t: metrics and units\n got %v\nwant %v", w.name, traced, got, want)
			}
			if traced {
				var sum float64
				for _, m := range cpuModules {
					sum += res.Metrics[m+".cpu_share"].Value
				}
				if sum > 1+1e-9 {
					t.Errorf("%s: cpu shares sum to %g", w.name, sum)
				}
			}
		}
	}
}

// TestSeedDeterminism checks that two runs at one seed compute identical
// simulated results and that another seed changes them.
func TestSeedDeterminism(t *testing.T) {
	for _, w := range workloads {
		bo := buildOpts{seed: 1, horizon: smokeHorizon[w.name]}
		runAt := func(seed int64) simResult {
			bo.seed = seed
			r, _, err := runRep(&w, bo, 0, sliceCount, false, false)
			if err != nil {
				t.Fatal(err)
			}
			return r.res
		}
		a, b, c := runAt(1), runAt(1), runAt(2)
		if err := sameSim(a, b, "run 1", "run 2"); err != nil {
			t.Errorf("%s: %v", w.name, err)
		}
		if a.Pairs == 0 {
			t.Errorf("%s: no pairs delivered in %gs", w.name, a.SimSeconds)
		}
		if reflect.DeepEqual(a, c) {
			t.Errorf("%s: seeds 1 and 2 computed the same result", w.name)
		}
	}
}

// TestCPUShares checks that the profile decoder refuses a non-profile and
// how frames map to modules; TestMetricsEmitted decodes real profiles.
func TestCPUShares(t *testing.T) {
	if _, err := cpuShares([]byte("not a profile")); err == nil {
		t.Error("garbage decoded")
	}
	if got := moduleOf("repro/internal/sim.(*Simulator).step"); got != "sim" {
		t.Errorf("moduleOf = %q", got)
	}
	if got := moduleOf("main.(*instance).collect.func1"); got != "perfbench" {
		t.Errorf("moduleOf = %q", got)
	}
	if got := moduleOf("runtime.mallocgc"); got != "" {
		t.Errorf("moduleOf = %q", got)
	}
}
