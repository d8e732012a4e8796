package main

import (
	"bytes"
	"context"
	"encoding/json"
	"math"
	"net/http"
	"os"
	"strings"
	"testing"

	"ruby/internal/obs"
)

// benchmarkFile is the part of BENCHMARK.json the tests compare against.
type benchmarkFile struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []metricSpec `json:"end_to_end"`
	PerLayer []metricSpec `json:"per_layer"`
}

type metricSpec struct {
	Name string `json:"name"`
	Unit string `json:"unit"`
}

func loadBenchmarkFile(t *testing.T) benchmarkFile {
	t.Helper()
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var bf benchmarkFile
	if err := json.Unmarshal(data, &bf); err != nil {
		t.Fatal(err)
	}
	return bf
}

// lastLine decodes the result object printed as the last line of out.
func lastLine(t *testing.T, out string) result {
	t.Helper()
	lines := strings.Split(strings.TrimSpace(out), "\n")
	var res result
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
		t.Fatalf("last line is not a result: %v\n%s", err, out)
	}
	return res
}

// TestSmokeEveryWorkload runs every workload at the tiny size, untraced and
// traced, and checks that every metric BENCHMARK.json names is printed with
// its unit, and nothing else.
func TestSmokeEveryWorkload(t *testing.T) {
	bf := loadBenchmarkFile(t)
	var names []string
	for _, w := range bf.Workloads {
		names = append(names, w.Name)
	}
	if strings.Join(names, ",") != strings.Join(workloadNames, ",") {
		t.Fatalf("BENCHMARK.json workloads %v, command knows %v", names, workloadNames)
	}
	for _, name := range workloadNames {
		for _, traced := range []bool{false, true} {
			var out bytes.Buffer
			o := options{workload: name, seed: 3, seconds: 0.05, trace: traced, tiny: true, traceDir: t.TempDir()}
			if _, err := run(context.Background(), o, &out); err != nil {
				t.Fatalf("%s traced=%v: %v", name, traced, err)
			}
			res := lastLine(t, out.String())
			if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
				t.Errorf("%s traced=%v: correct=%v attempted=%d failed=%d\n%s",
					name, traced, res.Correct, res.Attempted, res.Failed, out.String())
			}
			want := bf.EndToEnd
			if traced {
				want = bf.PerLayer
			}
			if len(res.Metrics) != len(want) {
				t.Errorf("%s traced=%v: %d metrics printed, BENCHMARK.json names %d", name, traced, len(res.Metrics), len(want))
			}
			for _, m := range want {
				got, ok := res.Metrics[m.Name]
				switch {
				case !ok:
					t.Errorf("%s traced=%v: metric %s missing", name, traced, m.Name)
				case got.Unit != m.Unit:
					t.Errorf("%s traced=%v: metric %s unit %q, want %q", name, traced, m.Name, got.Unit, m.Unit)
				case math.IsNaN(got.Value) || math.IsInf(got.Value, 0):
					t.Errorf("%s traced=%v: metric %s = %v", name, traced, m.Name, got.Value)
				case !traced && got.Value <= 0:
					t.Errorf("%s: end-to-end metric %s = %v, want > 0", name, m.Name, got.Value)
				}
			}
		}
	}
}

// runUnits sets a tiny workload up with the given seed and runs n units of
// it.
func runUnits(t *testing.T, name string, seed int64, n int) bench {
	t.Helper()
	w, err := newWorkload(name, seed, true)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(w.close)
	if err := w.setup(context.Background()); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < n; i++ {
		if _, err := measureUnit(context.Background(), w, false, i); err != nil {
			t.Fatal(err)
		}
	}
	if c := w.verify(); c.failed != 0 {
		t.Fatalf("%s fails its checks before tampering: %v", name, c.messages)
	}
	return w
}

func TestTamperedLayerCostFails(t *testing.T) {
	b := runUnits(t, "dse-random", 5, 1).(*dse)
	lr := &b.log.first[0][0].Layers[0]
	lr.Cost.EDP = math.Nextafter(lr.Cost.EDP, math.Inf(1))
	if c := b.verify(); c.failed != 1 {
		t.Fatalf("a cost one ulp off: %d failures, want 1 (%v)", c.failed, c.messages)
	}
}

func TestTamperedSearchBudgetFails(t *testing.T) {
	b := runUnits(t, "dse-random", 5, 1).(*dse)
	b.log.first[0][0].Layers[0].Search.Evaluated--
	if c := b.verify(); c.failed != 1 {
		t.Fatalf("a random search one evaluation short: %d failures, want 1 (%v)", c.failed, c.messages)
	}
}

func TestDifferingDigestFails(t *testing.T) {
	b := runUnits(t, "dse-guided", 5, 2).(*dse)
	ds := b.log.digests[0]
	ds[1] = "0" + ds[1][1:]
	if ds[1] == ds[0] {
		ds[1] = "1" + ds[1][1:]
	}
	if c := b.verify(); c.failed != 1 {
		t.Fatalf("a unit with another digest: %d failures, want 1 (%v)", c.failed, c.messages)
	}
}

// TestTamperedFusedCostFails uses seed 1, with which the tiny network
// search keeps a fused segment (most tiny seeds keep none).
func TestTamperedFusedCostFails(t *testing.T) {
	b := runUnits(t, "network-fuse", 1, 1).(*fuse)
	for _, nr := range b.log.first[0] {
		if len(nr.Segments) > 0 {
			nr.Segments[0].Fused.EDP *= 0.5
			if c := b.verify(); c.failed == 0 {
				t.Fatal("a halved fused EDP passes the checks")
			}
			return
		}
	}
	t.Fatal("the tiny network search with seed 1 kept no segment, so the fused-cost check is untested")
}

func TestNon200ResponseFails(t *testing.T) {
	b := runUnits(t, "serve-mixed", 5, 1).(*serve)
	b.statuses[0][0] = http.StatusInternalServerError
	if c := b.verify(); c.failed == 0 {
		t.Fatal("a 500 response passes the checks")
	}
}

func TestTamperedReplyCostFails(t *testing.T) {
	b := runUnits(t, "serve-mixed", 5, 1).(*serve)
	for i, s := range b.first {
		var rp map[string]json.RawMessage
		if err := json.Unmarshal(s.body, &rp); err != nil {
			t.Fatal(err)
		}
		var cost map[string]any
		if err := json.Unmarshal(rp["cost"], &cost); err != nil {
			t.Fatal(err)
		}
		cost["EDP"] = cost["EDP"].(float64) * 1.000001
		rp["cost"], _ = json.Marshal(cost)
		body, _ := json.Marshal(rp)
		if err := checkReply(b.templates[i], body); err == nil {
			t.Fatalf("%s reply with a tampered cost passes the check", classNames[b.templates[i].class])
		}
	}
}

func TestUnknownWorkloadIsAnError(t *testing.T) {
	if _, err := run(context.Background(), options{workload: "nope", seconds: 1}, &bytes.Buffer{}); err == nil {
		t.Fatal("an unknown workload ran")
	}
}

func TestCoveredMergesOverlappingChildren(t *testing.T) {
	span := func(start, dur int64) obs.SpanRecord { return obs.SpanRecord{Start: start, Dur: dur} }
	parent := span(0, 100)
	kids := []obs.SpanRecord{span(10, 20), span(20, 30), span(90, 30), span(200, 5)}
	// [10,30) and [20,50) merge to [10,50); [90,120) clips to [90,100).
	if got := covered(parent, kids); got != 50 {
		t.Fatalf("covered = %d, want 50", got)
	}
}
