package main

import (
	"bytes"
	"encoding/json"
	"os"
	"regexp"
	"strings"
	"testing"
)

var (
	nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitRE = regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
)

// runCommand runs the benchmark command and returns its exit code, its
// standard output and the result on its last output line.
func runCommand(t *testing.T, args ...string) (int, string, result) {
	t.Helper()
	var out, errOut bytes.Buffer
	code := run(args, &out, &errOut)
	lines := strings.Split(strings.TrimSpace(out.String()), "\n")
	last := lines[len(lines)-1]
	var res result
	if err := json.Unmarshal([]byte(last), &res); err != nil {
		t.Fatalf("last line %q is not a result: %v; stderr: %s", last, err, errOut.String())
	}
	return code, out.String(), res
}

// A wrong DUT output must count in failed_frac and fail the command.
func TestTamperedResponsesFail(t *testing.T) {
	for _, w := range []string{"e1_cosim", "lockstep_remote"} {
		code, out, res := runCommand(t, "--workload", w, "--seed", "7", "--seconds", "0", "--tamper")
		if code == 0 {
			t.Errorf("%s: exit code 0 with every response corrupted", w)
		}
		if res.Correct || res.Failed == 0 || res.Failed != res.Attempted {
			t.Errorf("%s: correct=%v failed=%d attempted=%d, want every run failed",
				w, res.Correct, res.Failed, res.Attempted)
		}
		if !regexp.MustCompile(`(?m)^  failed_frac +1 ratio$`).MatchString(out) {
			t.Errorf("%s: report does not show failed_frac 1:\n%s", w, out)
		}
		if !strings.Contains(out, "FAILED seed 7: ") {
			t.Errorf("%s: report does not name the failing seed:\n%s", w, out)
		}
	}
}

func TestMetricNames(t *testing.T) {
	seen := map[string]bool{}
	for _, d := range append(append([]metricDef(nil), endToEnd...), perLayer...) {
		if !nameRE.MatchString(d.name) {
			t.Errorf("metric name %q is not [A-Za-z0-9_.-]+", d.name)
		}
		if !unitRE.MatchString(d.unit) {
			t.Errorf("metric %s: bad unit %q", d.name, d.unit)
		}
		if d.better != "lower" && d.better != "higher" {
			t.Errorf("metric %s: better = %q", d.name, d.better)
		}
		if seen[d.name] {
			t.Errorf("metric %s listed twice", d.name)
		}
		seen[d.name] = true
	}
}

// BENCHMARK.json and the program's metric and workload tables must agree.
func TestBenchmarkJSONMatchesTables(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	type def struct {
		Name, Unit, Better, Why string
		Bound                   *float64
	}
	var b struct {
		Workloads []def `json:"workloads"`
		EndToEnd  []def `json:"end_to_end"`
		PerLayer  []def `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &b); err != nil {
		t.Fatal(err)
	}
	if len(b.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json lists %d workloads, the program %d", len(b.Workloads), len(workloads))
	}
	for i, w := range b.Workloads {
		if w.Name != workloads[i].name {
			t.Errorf("workload %d: BENCHMARK.json %q, program %q", i, w.Name, workloads[i].name)
		}
		if len(w.Why) > 200 || !strings.Contains(w.Why, "held-out seed") {
			t.Errorf("workload %s: why must fit 200 characters and record the held-out seed", w.Name)
		}
	}
	check := func(kind string, got []def, want []metricDef) {
		if len(got) != len(want) {
			t.Fatalf("%s: BENCHMARK.json lists %d metrics, the program %d", kind, len(got), len(want))
		}
		for i, g := range got {
			w := want[i]
			if g.Name != w.name || g.Unit != w.unit || g.Better != w.better {
				t.Errorf("%s %d: BENCHMARK.json %s %s %s, program %s %s %s",
					kind, i, g.Name, g.Unit, g.Better, w.name, w.unit, w.better)
			}
		}
	}
	check("end_to_end", b.EndToEnd, endToEnd)
	check("per_layer", b.PerLayer, perLayer)
	var setup float64
	for _, d := range b.EndToEnd {
		if d.Bound == nil {
			t.Fatalf("%s has no bound", d.Name)
		}
		if d.Name == "setup_s" {
			setup = *d.Bound
		}
	}
	for _, d := range b.EndToEnd {
		if *d.Bound <= 0 || *d.Bound > 0.25 || *d.Bound > setup {
			t.Errorf("%s: bound %v must be in (0, 0.25] and at most setup_s's %v", d.Name, *d.Bound, setup)
		}
	}
}

// Every workload emits every end-to-end metric, nonzero, untraced, and
// every per-layer metric traced.
func TestEveryWorkloadEmitsEveryMetric(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every workload")
	}
	for _, w := range workloads {
		for _, trace := range []string{"0", "1"} {
			code, out, res := runCommand(t, "--workload", w.name, "--seconds", "0", "--trace", trace)
			if code != 0 || !res.Correct || res.Attempted == 0 {
				t.Errorf("%s trace %s: exit %d, correct=%v attempted=%d:\n%s",
					w.name, trace, code, res.Correct, res.Attempted, out)
			}
			defs := endToEnd
			if trace == "1" {
				defs = perLayer
			}
			if len(res.Metrics) != len(defs) {
				t.Errorf("%s trace %s: %d metrics, want %d", w.name, trace, len(res.Metrics), len(defs))
			}
			for _, d := range defs {
				m, ok := res.Metrics[d.name]
				switch {
				case !ok:
					t.Errorf("%s trace %s: no %s", w.name, trace, d.name)
				case m.Unit != d.unit:
					t.Errorf("%s trace %s: %s unit %q, want %q", w.name, trace, d.name, m.Unit, d.unit)
				case trace == "0" && m.Value <= 0:
					t.Errorf("%s: %s = %v, want > 0", w.name, d.name, m.Value)
				}
			}
		}
	}
}

func TestCounterDiff(t *testing.T) {
	ref := map[string]float64{"a": 1, "b": 2}
	if d := counterDiff(ref, map[string]float64{"a": 1, "b": 2}); d != "" {
		t.Errorf("equal counters: %q", d)
	}
	if d := counterDiff(ref, map[string]float64{"a": 1, "b": 3}); !strings.HasPrefix(d, "b = 3") {
		t.Errorf("changed counter: %q", d)
	}
	if d := counterDiff(ref, map[string]float64{"a": 1, "b": 2, "c": 0}); !strings.HasPrefix(d, "c = 0") {
		t.Errorf("extra counter: %q", d)
	}
}
