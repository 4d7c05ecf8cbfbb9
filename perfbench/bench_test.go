package main

import (
	"encoding/json"
	"io"
	"math"
	"os"
	"reflect"
	"strings"
	"testing"
	"time"
)

// benchmarkFile mirrors BENCHMARK.json at the repository root.
type benchmarkFile struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []struct {
		metricDef
		Bound float64 `json:"bound"`
	} `json:"end_to_end"`
	PerLayer []metricDef `json:"per_layer"`
}

func readBenchmarkFile(t *testing.T) benchmarkFile {
	t.Helper()
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var bf benchmarkFile
	dec := json.NewDecoder(strings.NewReader(string(data)))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&bf); err != nil {
		t.Fatal(err)
	}
	return bf
}

func workloadsUnderTest(t *testing.T) []string {
	if testing.Short() {
		// The fleet takes seconds per pass.
		return []string{"recovery", "transparent"}
	}
	return workloadNames
}

// The simulated outcome (every sim_* metric and simulated count) must
// repeat exactly: across passes over one plan, and across plans generated
// twice from one seed.
func TestSimulatedOutcomeRepeats(t *testing.T) {
	for _, w := range workloadsUnderTest(t) {
		t.Run(w, func(t *testing.T) {
			var sums []simSummary
			for i := 0; i < 2; i++ {
				pl, err := newPlan(w, 5)
				if err != nil {
					t.Fatal(err)
				}
				passes := 1 + i // the second plan runs twice
				for j := 0; j < passes; j++ {
					pr, err := pl.run(true)
					if err != nil {
						t.Fatal(err)
					}
					if len(pr.unexpected) > 0 {
						t.Errorf("unexpected gate failures: %v", pr.unexpected)
					}
					sums = append(sums, pr.sum)
				}
			}
			for i := 1; i < len(sums); i++ {
				if !reflect.DeepEqual(sums[0], sums[i]) {
					t.Fatalf("run %d simulated a different outcome:\n%+v\nvs\n%+v", i, sums[i], sums[0])
				}
				if a, b := simulatedMetrics(sums[0]), simulatedMetrics(sums[i]); !reflect.DeepEqual(a, b) {
					t.Fatalf("run %d reported different simulated metrics", i)
				}
			}
			if w == "transparent" {
				// The known network-error divergence must stay visible.
				var seen []string
				for _, f := range sums[0].Failures {
					if strings.Contains(f, "chaos-seed-13") || strings.Contains(f, "chaos-seed-47") {
						seen = append(seen, f)
					}
				}
				if len(seen) != 2 {
					t.Errorf("chaos seeds 13 and 47 should both diverge, got failures %v", sums[0].Failures)
				}
			}
		})
	}
}

// The same seed generates the same inputs; a different seed different
// ones.
func TestSeedChangesInputs(t *testing.T) {
	for _, w := range workloadNames {
		fp := func(seed int64) string {
			pl, err := newPlan(w, seed)
			if err != nil {
				t.Fatal(err)
			}
			return pl.fingerprint()
		}
		a, again, b := fp(1), fp(1), fp(2)
		if a != again {
			t.Errorf("%s: seed 1 generated different inputs twice", w)
		}
		if a == b {
			t.Errorf("%s: seeds 1 and 2 generated the same inputs", w)
		}
	}
}

// BENCHMARK.json lists exactly the benchmark's workloads and metrics,
// with the units and directions perfbench prints, and a run emits every
// metric it lists.
func TestBenchmarkFileMatchesEmittedMetrics(t *testing.T) {
	bf := readBenchmarkFile(t)
	var names []string
	for _, w := range bf.Workloads {
		names = append(names, w.Name)
	}
	if !reflect.DeepEqual(names, workloadNames) {
		t.Errorf("BENCHMARK.json workloads %v, perfbench has %v", names, workloadNames)
	}
	var e2e []metricDef
	for _, m := range bf.EndToEnd {
		e2e = append(e2e, m.metricDef)
		if m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("%s: bound %v outside (0, 0.25]", m.Name, m.Bound)
		}
	}
	if !reflect.DeepEqual(e2e, endToEnd) {
		t.Errorf("BENCHMARK.json end_to_end %v, perfbench has %v", e2e, endToEnd)
	}
	if !reflect.DeepEqual(bf.PerLayer, perLayer()) {
		t.Errorf("BENCHMARK.json per_layer differs from perfbench's:\n%v\nvs\n%v", bf.PerLayer, perLayer())
	}

	check := func(trace bool, want []metricDef) {
		res, err := run(options{workload: "recovery", seed: 2, seconds: 0.001, trace: trace, profileDir: t.TempDir()}, io.Discard)
		if err != nil {
			t.Fatal(err)
		}
		if !res.Correct || res.Attempted == 0 || res.Failed != 0 {
			t.Errorf("trace=%v: correct=%v attempted=%d failed=%d", trace, res.Correct, res.Attempted, res.Failed)
		}
		if len(res.Metrics) != len(want) {
			t.Errorf("trace=%v: emitted %d metrics, BENCHMARK.json lists %d", trace, len(res.Metrics), len(want))
		}
		for _, m := range want {
			v, ok := res.Metrics[m.Name]
			if !ok || v.Unit != m.Unit || math.IsNaN(v.Value) || math.IsInf(v.Value, 0) {
				t.Errorf("trace=%v: metric %s emitted as %+v (present %v), want unit %s", trace, m.Name, v, ok, m.Unit)
			}
		}
		if trace {
			total := 0.0
			for _, b := range cpuBuckets() {
				total += res.Metrics["cpu_pct."+b].Value
			}
			if math.Abs(total-100) > 1e-6 {
				t.Errorf("cpu_pct shares sum to %v, want 100", total)
			}
		}
	}
	check(false, endToEnd)
	check(true, perLayer())
}

// The CPU attribution rule charges runtime leaves to their group and
// everything else outside the simulator to the innermost simulator frame.
func TestBucketOf(t *testing.T) {
	for _, tc := range []struct {
		stack []string
		want  string
	}{
		{[]string{"jitckpt/internal/vclock.(*Env).dispatch", "main.main"}, "vclock"},
		{[]string{"encoding/gob.(*Encoder).Encode", "jitckpt/internal/proxy.(*Client).call", "jitckpt/internal/core.run"}, "proxy"},
		{[]string{"runtime.memmove", "jitckpt/internal/tensor.Vector.Copy"}, "tensor"},
		{[]string{"runtime.chanrecv", "jitckpt/internal/vclock.(*Proc).yield"}, "rt_sched"},
		{[]string{"runtime.futex", "runtime.notesleep"}, "rt_sched"},
		{[]string{"runtime.mallocgc", "jitckpt/internal/trace.fmtArgs"}, "rt_malloc"},
		{[]string{"runtime.gcAssistAlloc", "runtime.mallocgc"}, "rt_malloc"},
		{[]string{"runtime.scanobject", "runtime.gcDrain"}, "rt_gc"},
		{[]string{"runtime.mapaccess2_faststr", "jitckpt/internal/cuda.(*Driver).buf"}, "rt_map"},
		{[]string{"internal/runtime/maps.(*Map).getWithKeySmall", "runtime.mapaccess1"}, "rt_map"},
		{[]string{"fmt.Sprintf", "main.run"}, "other"},
		{nil, "other"},
	} {
		if got := bucketOf(tc.stack); got != tc.want {
			t.Errorf("bucketOf(%v) = %s, want %s", tc.stack, got, tc.want)
		}
	}
}

// A probed pass puts every simulation between two speed probes, at most
// probeEvery of simulation apart, and its normalized times add up to the
// pass's; an unprobed pass reports measured times unchanged.
func TestProbedPassBracketsEverySimulation(t *testing.T) {
	sims := []time.Duration{0, 10, 10, 60, 5, 80}
	for _, probed := range []bool{true, false} {
		pr := &passResult{probed: probed, probeReps: 1}
		for _, ms := range sims {
			if err := pr.timed(func() error { time.Sleep(ms * time.Millisecond); return nil }); err != nil {
				t.Fatal(err)
			}
		}
		pr.normalize()
		if len(pr.cellMS) != len(sims) {
			t.Fatalf("probed=%v: %d normalized times for %d simulations", probed, len(pr.cellMS), len(sims))
		}
		var sum float64
		for _, ms := range pr.cellMS {
			sum += ms
		}
		if got := float64(pr.norm.Nanoseconds()) / 1e6; math.Abs(got-sum) > 1e-3 {
			t.Errorf("probed=%v: normalized pass %v ms, simulations sum to %v ms", probed, got, sum)
		}
		if !probed {
			if len(pr.probes) != 0 || pr.norm != pr.wall {
				t.Errorf("unprobed pass took %d probes, normalized %v != measured %v", len(pr.probes), pr.norm, pr.wall)
			}
			continue
		}
		for i, k := range pr.bracket {
			if k < 0 || k+1 >= len(pr.probes) {
				t.Fatalf("simulation %d has no probe on both sides (bracket %d of %d probes)", i, k, len(pr.probes))
			}
		}
		// 0+10+10+60 ms pass probeEvery only after the 60 ms simulation,
		// then again after the 80 ms one: three probes in all.
		if len(pr.probes) != 3 {
			t.Errorf("took %d probes, want 3 (brackets %v)", len(pr.probes), pr.bracket)
		}
	}
}
