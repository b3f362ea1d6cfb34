// Command cvbench is the benchmark of the CASTANET co-verification
// environment. It runs one workload (or all of them) for a fixed host time
// as repeated, closed-loop repetitions of a fixed amount of work, checks
// that every run verified cleanly, and prints a text report followed by one
// JSON object on its last output line:
//
//	{"correct": true, "attempted": 21, "failed": 0, "metrics": {...}}
//
// An untraced run (--trace 0) reports the end-to-end metrics; a traced run
// (--trace 1) alternates untraced and profiled repetitions and reports the
// per-layer metrics. Every metric is a median over repetitions. Everything
// is measured from outside the program: host time around its public calls,
// its public counters, the Go runtime's metrics, and in traced runs its
// obs.RunProfile. A run exits non-zero when any verification failed.
//
// Build and run it from the repository root with
//
//	bash cvbench/run.sh --workload e1_cosim --seed 1 --seconds 20 --trace 0
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"slices"
	"sort"
	"strings"
	"time"
)

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

// minReps is the fewest measured repetitions of each kind a run makes,
// however short --seconds is.
const minReps = 3

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("cvbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload to run: "+workloadNames()+", or all")
	seed := fs.Uint64("seed", 1, "seed the workload's inputs derive from")
	seconds := fs.Float64("seconds", 10, "host time to measure each workload for")
	trace := fs.Int("trace", 0, "1 runs profiled repetitions and reports per-layer metrics")
	doTamper := fs.Bool("tamper", false, "corrupt every DUT response (self-test: the run must fail)")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *trace != 0 && *trace != 1 {
		fmt.Fprintf(stderr, "cvbench: --trace must be 0 or 1\n")
		return 2
	}
	var list []workload
	if *name == "all" {
		list = workloads
	} else if w, ok := findWorkload(*name); ok {
		list = []workload{w}
	} else {
		fmt.Fprintf(stderr, "cvbench: unknown workload %q (valid: %s, all)\n", *name, workloadNames())
		return 2
	}
	in := input{seed: *seed, tamper: *doTamper}
	for _, w := range list {
		if in.tamper && !w.tamper {
			fmt.Fprintf(stderr, "cvbench: workload %s has no tamper hook\n", w.name)
			return 2
		}
	}

	traced := *trace == 1
	budget := time.Duration(*seconds * float64(time.Second))
	var outs []outcome
	for _, w := range list {
		o := measure(w, in, budget, traced)
		o.report(stdout, traced)
		outs = append(outs, o)
	}

	res := result{Metrics: map[string]metric{}}
	for _, o := range outs {
		res.Attempted += o.attempted
		res.Failed += o.failed
		prefix := ""
		if len(outs) > 1 {
			prefix = o.w.name + "."
		}
		for name, m := range o.metrics(traced) {
			res.Metrics[prefix+name] = m
		}
	}
	res.Correct = res.Failed == 0
	if len(outs) > 1 && !traced {
		ratio := e1Ratio(outs)
		fmt.Fprintf(stdout, "E1 ratio cells_per_s(e1_cosim) / cells_per_s(e1_rtl) = %.3f  [paper: ~1300 vs ~300 clk/s, ~4.3x]\n", ratio)
		fmt.Fprintln(stdout, "  only the ratio is comparable: the Go model is not validated against the paper's UltraSparc figures")
		res.Metrics["e1_speedup"] = metric{Value: ratio, Unit: "ratio"}
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintf(stderr, "cvbench: %v\n", err)
		return 1
	}
	fmt.Fprintln(stdout, string(line))
	if !res.Correct {
		return 1
	}
	return 0
}

func workloadNames() string {
	names := make([]string, len(workloads))
	for i, w := range workloads {
		names[i] = w.name
	}
	return strings.Join(names, ", ")
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// outcome is everything one workload's run measured.
type outcome struct {
	w       workload
	seed    uint64
	elapsed time.Duration
	// untraced and traced are the measured repetitions; a warm-up
	// repetition is checked but not measured.
	untraced, traced  []rep
	attempted, failed int
	problems          []string
}

// measure runs the workload's repetitions until the budget is spent: one
// warm-up, then untraced repetitions, alternating with traced ones in a
// traced run. Every repetition's counters are checked against the first
// repetition of the same kind.
func measure(w workload, in input, budget time.Duration, traced bool) outcome {
	o := outcome{w: w, seed: in.seed}
	refs := map[bool]map[string]float64{}
	do := func(tr bool) rep {
		r := w.rep(in, tr)
		if tr && r.cells > 0 {
			r.layer["go.mallocs_per_cell"] = r.mallocs / r.cells
			r.layer["go.gc_cpu_frac"] = r.gcCPUFrac
		}
		if ref, ok := refs[tr]; !ok {
			refs[tr] = r.counters
		} else if diff := counterDiff(ref, r.counters); diff != "" && r.failed == 0 {
			r.fail(in.seed, "counter not repeated: %s", diff)
		}
		o.attempted += r.runs
		o.failed += r.failed
		o.problems = append(o.problems, r.problems...)
		return r
	}
	start := time.Now()
	do(false)
	for len(o.untraced) < minReps || time.Since(start) < budget {
		o.untraced = append(o.untraced, do(false))
		if traced {
			o.traced = append(o.traced, do(true))
		}
	}
	o.elapsed = time.Since(start)
	return o
}

// counterDiff names the first counter that differs between two
// repetitions, "" when all agree.
func counterDiff(ref, got map[string]float64) string {
	for _, k := range sortedKeys(ref) {
		if got[k] != ref[k] {
			return fmt.Sprintf("%s = %v, first repetition %v", k, got[k], ref[k])
		}
	}
	for _, k := range sortedKeys(got) {
		if _, ok := ref[k]; !ok {
			return fmt.Sprintf("%s = %v, absent from first repetition", k, got[k])
		}
	}
	return ""
}

// sortedKeys returns a map's keys in order.
func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

// samples returns each end-to-end metric's values over the untraced
// repetitions that verified any cells.
func (o outcome) samples() map[string][]float64 {
	per := map[string]func(r rep) float64{
		"wall_s":               func(r rep) float64 { return r.wall.Seconds() },
		"setup_s":              func(r rep) float64 { return r.setup.Seconds() },
		"cells_per_s":          func(r rep) float64 { return r.cells / (r.wall - r.setup).Seconds() },
		"clk_cycles_per_s":     func(r rep) float64 { return r.cycles / (r.wall - r.setup).Seconds() },
		"alloc_bytes_per_cell": func(r rep) float64 { return r.allocBytes / r.cells },
		"peak_heap_mb":         func(r rep) float64 { return r.peakHeapBytes / 1e6 },
	}
	out := map[string][]float64{}
	for name, f := range per {
		for _, r := range o.untraced {
			if r.cells > 0 {
				out[name] = append(out[name], f(r))
			}
		}
	}
	return out
}

// endToEnd returns the medians of the end-to-end metrics, with
// failed_frac appended.
func (o outcome) endToEnd() map[string]float64 {
	m := map[string]float64{}
	for name, v := range o.samples() {
		m[name] = median(v)
	}
	m["failed_frac"] = float64(o.failed) / float64(max(o.attempted, 1))
	return m
}

// layers returns the medians of the per-layer metrics the traced
// repetitions measured, plus the tracing overhead. Layers the workload
// never enters are absent.
func (o outcome) layers() map[string]float64 {
	vals := map[string][]float64{}
	var tracedWall, plainWall []float64
	for _, r := range o.traced {
		for k, v := range r.layer {
			vals[k] = append(vals[k], v)
		}
		tracedWall = append(tracedWall, r.wall.Seconds())
	}
	for _, r := range o.untraced {
		plainWall = append(plainWall, r.wall.Seconds())
	}
	m := map[string]float64{}
	for k, v := range vals {
		m[k] = median(v)
	}
	m["obs.trace_overhead_frac"] = median(tracedWall)/median(plainWall) - 1
	return m
}

// metrics returns the JSON metrics: every end-to-end metric of
// BENCHMARK.json untraced, every per-layer metric traced. A per-layer
// metric of a layer the workload never enters reads 0 there; the text
// report omits it.
func (o outcome) metrics(traced bool) map[string]metric {
	out := map[string]metric{}
	defs, vals := endToEnd, o.endToEnd()
	if traced {
		defs, vals = perLayer, o.layers()
	}
	for _, d := range defs {
		v := vals[d.name]
		if math.IsNaN(v) || math.IsInf(v, 0) {
			v = 0
		}
		out[d.name] = metric{Value: v, Unit: d.unit}
	}
	return out
}

// report prints the workload's text report: the end-to-end metrics, and
// in a traced run the per-layer metrics of the layers it entered.
func (o outcome) report(w io.Writer, traced bool) {
	fmt.Fprintf(w, "workload %s seed %d: %d untraced + %d traced repetitions in %.1f s, %d runs attempted, %d failed\n",
		o.w.name, o.seed, len(o.untraced), len(o.traced), o.elapsed.Seconds(), o.attempted, o.failed)
	for _, p := range o.problems {
		fmt.Fprintf(w, "  FAILED %s\n", p)
	}
	samples := o.samples()
	for _, d := range endToEnd {
		v := samples[d.name]
		fmt.Fprintf(w, "  %-28s %14.6g %-9s quartiles %.6g .. %.6g of %d\n",
			d.name, median(v), d.unit, quantile(v, 0.25), quantile(v, 0.75), len(v))
	}
	fmt.Fprintf(w, "  %-28s %14.6g %s\n", "failed_frac", o.endToEnd()["failed_frac"], "ratio")
	if !traced {
		return
	}
	layers := o.layers()
	for _, d := range perLayer {
		v, ok := layers[d.name]
		if !ok {
			continue
		}
		fmt.Fprintf(w, "  %-9s %-28s %14.6g %-12s moves %s on %s\n", d.layer, d.name, v, d.unit, d.moves, d.on)
	}
}

// e1Ratio is cells_per_s(e1_cosim) / cells_per_s(e1_rtl), the figure the
// paper reports as ~4.3x; 0 unless both workloads ran.
func e1Ratio(outs []outcome) float64 {
	rate := map[string]float64{}
	for _, o := range outs {
		rate[o.w.name] = o.endToEnd()["cells_per_s"]
	}
	if rate["e1_rtl"] == 0 {
		return 0
	}
	return rate["e1_cosim"] / rate["e1_rtl"]
}

func median(v []float64) float64 { return quantile(v, 0.5) }

// quantile interpolates the q-quantile of v linearly between order
// statistics; 0 for no values.
func quantile(v []float64, q float64) float64 {
	if len(v) == 0 {
		return 0
	}
	s := slices.Clone(v)
	slices.Sort(s)
	pos := q * float64(len(s)-1)
	i := int(pos)
	if i+1 >= len(s) {
		return s[len(s)-1]
	}
	return s[i] + (pos-float64(i))*(s[i+1]-s[i])
}
