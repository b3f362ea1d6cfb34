package castanet_test

import (
	"bufio"
	"encoding/json"
	"io"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
	"time"
)

// TestCommandLineTools smoke-tests the three binaries end to end: build
// once, then exercise their primary flows.
func TestCommandLineTools(t *testing.T) {
	if testing.Short() {
		t.Skip("builds binaries")
	}
	bin := t.TempDir()
	for _, tool := range []string{"castanet", "atmgen", "boardctl"} {
		out, err := exec.Command("go", "build", "-o", filepath.Join(bin, tool), "./cmd/"+tool).CombinedOutput()
		if err != nil {
			t.Fatalf("build %s: %v\n%s", tool, err, out)
		}
	}

	t.Run("castanet-e3", func(t *testing.T) {
		out, err := exec.Command(filepath.Join(bin, "castanet"), "-experiment", "e3", "-cells", "200").CombinedOutput()
		if err != nil {
			t.Fatalf("%v\n%s", err, out)
		}
		for _, want := range []string{"E3:", "events ratio", "clock cycles / line cell"} {
			if !strings.Contains(string(out), want) {
				t.Errorf("output missing %q:\n%s", want, out)
			}
		}
	})

	t.Run("castanet-bad-experiment", func(t *testing.T) {
		out, err := exec.Command(filepath.Join(bin, "castanet"), "-experiment", "nope").CombinedOutput()
		if err == nil {
			t.Fatalf("unknown experiment accepted:\n%s", out)
		}
		if ee, ok := err.(*exec.ExitError); !ok || ee.ExitCode() != 2 {
			t.Errorf("exit status = %v, want 2", err)
		}
		if !strings.Contains(string(out), "e1") || !strings.Contains(string(out), "e8") {
			t.Errorf("usage should list valid experiment names:\n%s", out)
		}
	})

	t.Run("castanet-observability", func(t *testing.T) {
		traceFile := filepath.Join(bin, "e1.json")
		metricsFile := filepath.Join(bin, "e1.metrics")
		out, err := exec.Command(filepath.Join(bin, "castanet"),
			"-experiment", "e1", "-cells", "200",
			"-trace", traceFile, "-metrics", metricsFile).CombinedOutput()
		if err != nil {
			t.Fatalf("%v\n%s", err, out)
		}
		if !strings.Contains(string(out), "run report") {
			t.Errorf("stdout missing end-of-run summary table:\n%s", out)
		}

		metrics, err := os.ReadFile(metricsFile)
		if err != nil {
			t.Fatal(err)
		}
		for _, want := range []string{
			"net.sched.executed counter ",
			"cosim.queue.k8.depth gauge ",
			"cosim.entity.lag_ps gauge ",
			"ipc.reliable.retransmits counter ",
			"hdl.sim.delta_cycles counter ",
		} {
			if !strings.Contains(string(metrics), want) {
				t.Errorf("metrics exposition missing %q:\n%s", want, metrics)
			}
		}

		// The trace must be well-formed Chrome trace-event JSON with the
		// expected tracks and balanced spans.
		raw, err := os.ReadFile(traceFile)
		if err != nil {
			t.Fatal(err)
		}
		var tr struct {
			TraceEvents []struct {
				Name  string                 `json:"name"`
				Phase string                 `json:"ph"`
				Tid   int                    `json:"tid"`
				TS    float64                `json:"ts"`
				Args  map[string]interface{} `json:"args"`
			} `json:"traceEvents"`
		}
		if err := json.Unmarshal(raw, &tr); err != nil {
			t.Fatalf("trace is not valid JSON: %v", err)
		}
		tracks := map[string]bool{}
		begins, ends := 0, 0
		lastTS := map[int]float64{}
		backwards := 0
		for _, e := range tr.TraceEvents {
			switch e.Phase {
			case "M":
				if e.Name == "thread_name" {
					tracks[e.Args["name"].(string)] = true
				}
				continue
			case "B":
				begins++
			case "E":
				ends++
			}
			if prev, ok := lastTS[e.Tid]; ok && e.TS < prev {
				backwards++
			}
			lastTS[e.Tid] = e.TS
		}
		if backwards > 0 {
			t.Errorf("%d events run backwards within their track", backwards)
		}
		if begins == 0 || begins != ends {
			t.Errorf("spans unbalanced: %d begins, %d ends", begins, ends)
		}
		for _, want := range []string{"netsim", "hdl-dut", "coupling", "rig"} {
			if !tracks[want] {
				t.Errorf("trace missing track %q (have %v)", want, tracks)
			}
		}
	})

	t.Run("castanet-campaign", func(t *testing.T) {
		traceFile := filepath.Join(bin, "campaign.json")
		out, err := exec.Command(filepath.Join(bin, "castanet"),
			"-campaign", "switch", "-runs", "8", "-shards", "2", "-seed", "1",
			"-trace", traceFile).CombinedOutput()
		if err != nil {
			t.Fatalf("%v\n%s", err, out)
		}
		for _, want := range []string{
			`campaign "switch": 8 runs on 2 shards`,
			"completed=8 failed=0 skipped=0",
			"stat cells",
		} {
			if !strings.Contains(string(out), want) {
				t.Errorf("summary report missing %q:\n%s", want, out)
			}
		}

		// The campaign trace must carry one well-formed track per worker.
		raw, err := os.ReadFile(traceFile)
		if err != nil {
			t.Fatal(err)
		}
		var tr struct {
			TraceEvents []struct {
				Name  string                 `json:"name"`
				Phase string                 `json:"ph"`
				Tid   int                    `json:"tid"`
				TS    float64                `json:"ts"`
				Args  map[string]interface{} `json:"args"`
			} `json:"traceEvents"`
		}
		if err := json.Unmarshal(raw, &tr); err != nil {
			t.Fatalf("campaign trace is not valid JSON: %v", err)
		}
		tracks := map[string]bool{}
		begins, ends := 0, 0
		lastTS := map[int]float64{}
		backwards := 0
		for _, e := range tr.TraceEvents {
			switch e.Phase {
			case "M":
				if e.Name == "thread_name" {
					tracks[e.Args["name"].(string)] = true
				}
				continue
			case "B":
				begins++
			case "E":
				ends++
			}
			if prev, ok := lastTS[e.Tid]; ok && e.TS < prev {
				backwards++
			}
			lastTS[e.Tid] = e.TS
		}
		for _, want := range []string{"worker0", "worker1"} {
			if !tracks[want] {
				t.Errorf("campaign trace missing track %q (have %v)", want, tracks)
			}
		}
		if begins == 0 || begins != ends {
			t.Errorf("campaign spans unbalanced: %d begins, %d ends", begins, ends)
		}
		if backwards > 0 {
			t.Errorf("%d campaign events run backwards within their track", backwards)
		}
	})

	t.Run("castanet-serve-telemetry", func(t *testing.T) {
		// Run a campaign with the live telemetry endpoint up and scrape it
		// mid-flight: /metrics must be valid Prometheus exposition carrying
		// per-shard progress, /healthz must report ok, /snapshot must
		// stream JSON progress lines.
		cmd := exec.Command(filepath.Join(bin, "castanet"),
			"-campaign", "switch", "-runs", "600", "-shards", "2", "-seed", "1",
			"-coverage", "-serve", "127.0.0.1:0")
		stderr, err := cmd.StderrPipe()
		if err != nil {
			t.Fatal(err)
		}
		if err := cmd.Start(); err != nil {
			t.Fatal(err)
		}
		defer func() {
			cmd.Process.Kill()
			cmd.Wait()
		}()

		// The bound address is announced on stderr before the campaign
		// starts.
		var base string
		sc := bufio.NewScanner(stderr)
		for sc.Scan() {
			if _, rest, ok := strings.Cut(sc.Text(), "telemetry at "); ok {
				base = strings.TrimSuffix(rest, "/")
				break
			}
		}
		if base == "" {
			t.Fatal("telemetry address never announced on stderr")
		}
		go io.Copy(io.Discard, stderr) // keep the pipe drained

		get := func(path string) (string, error) {
			resp, err := http.Get(base + path)
			if err != nil {
				return "", err
			}
			defer resp.Body.Close()
			b, err := io.ReadAll(resp.Body)
			return string(b), err
		}

		// Poll /metrics until per-shard campaign progress appears (the
		// first runs must complete before the shard counters exist); the
		// campaign is large enough that this happens mid-run.
		deadline := time.Now().Add(30 * time.Second)
		var metrics string
		for {
			m, err := get("/metrics")
			if err == nil && strings.Contains(m, `campaign_runs_total{shard="`) {
				metrics = m
				break
			}
			if time.Now().After(deadline) {
				t.Fatalf("per-shard progress never appeared in /metrics; last scrape:\n%s", m)
			}
			time.Sleep(50 * time.Millisecond)
		}
		if !strings.Contains(metrics, "# TYPE campaign_runs_total counter") {
			t.Errorf("/metrics missing the campaign_runs_total TYPE line:\n%s", metrics)
		}
		// Structural exposition check: every line is a comment or a
		// "name{labels} value" / "name value" sample.
		sample := regexp.MustCompile(`^[a-zA-Z_:][a-zA-Z0-9_:]*(\{[^}]*\})? [0-9eE.+-]+(e[0-9+-]+)?$`)
		for _, line := range strings.Split(strings.TrimRight(metrics, "\n"), "\n") {
			if strings.HasPrefix(line, "#") {
				continue
			}
			if !sample.MatchString(line) {
				t.Errorf("exposition line does not parse: %q", line)
			}
		}

		healthz, err := get("/healthz")
		if err != nil {
			t.Fatal(err)
		}
		var h struct {
			Status string `json:"status"`
		}
		if err := json.Unmarshal([]byte(healthz), &h); err != nil || h.Status != "ok" {
			t.Errorf("/healthz = %q (err %v), want status ok", healthz, err)
		}

		snap, err := get("/snapshot")
		if err != nil {
			t.Fatal(err)
		}
		var p struct {
			WallMS *int64 `json:"wall_ms"`
		}
		if err := json.Unmarshal([]byte(snap), &p); err != nil || p.WallMS == nil {
			t.Errorf("/snapshot = %q (err %v), want a JSON progress line", snap, err)
		}

		// The campaign runs with -coverage, so /coverage must fill with
		// the instrumented groups as runs commit, and the cover bins must
		// surface in the /metrics exposition too.
		var cov struct {
			Groups []struct {
				Group  string  `json:"group"`
				Hit    int     `json:"hit"`
				Total  int     `json:"total"`
				Ratio  float64 `json:"ratio"`
				Points []struct {
					Name string `json:"name"`
					Bins []struct {
						Label string `json:"bin"`
						Hits  uint64 `json:"hits"`
					} `json:"bins"`
				} `json:"points"`
			} `json:"groups"`
		}
		for {
			body, err := get("/coverage")
			if err == nil {
				if jerr := json.Unmarshal([]byte(body), &cov); jerr != nil {
					t.Fatalf("/coverage is not JSON: %v\n%s", jerr, body)
				}
				if len(cov.Groups) >= 5 {
					break
				}
			}
			if time.Now().After(deadline) {
				t.Fatalf("/coverage never filled; last: %d groups", len(cov.Groups))
			}
			time.Sleep(50 * time.Millisecond)
		}
		seen := map[string]bool{}
		for _, g := range cov.Groups {
			seen[g.Group] = true
			if g.Total == 0 || len(g.Points) == 0 {
				t.Errorf("/coverage group %q has no bins: %+v", g.Group, g)
			}
			if g.Ratio < 0 || g.Ratio > 1 {
				t.Errorf("/coverage group %q ratio out of range: %g", g.Group, g.Ratio)
			}
		}
		for _, want := range []string{
			"cosim.coupling", "cosim.sync", "coverify.cell_header", "coverify.cmp", "dut.queue",
		} {
			if !seen[want] {
				t.Errorf("/coverage missing group %q (have %v)", want, seen)
			}
		}
		m, err := get("/metrics")
		if err != nil {
			t.Fatal(err)
		}
		if !strings.Contains(m, "castanet_cover_bin_total{group=") ||
			!strings.Contains(m, "castanet_cover_group_ratio{group=") {
			t.Errorf("/metrics missing cover bin families after coverage filled:\n%s", m)
		}

		cmd.Process.Kill()
	})

	t.Run("castanet-campaign-coverage", func(t *testing.T) {
		// -coverage appends the functional-coverage table to the operator
		// report and the full bin listing after it.
		out, err := exec.Command(filepath.Join(bin, "castanet"),
			"-campaign", "switch", "-runs", "16", "-shards", "2", "-seed", "1",
			"-coverage").CombinedOutput()
		if err != nil {
			t.Fatalf("%v\n%s", err, out)
		}
		for _, want := range []string{
			"  cover cosim.coupling",
			"  cover cosim.sync",
			"  cover coverify.cell_header",
			"  cover coverify.cmp",
			"  cover dut.queue",
			"group dut.queue",
			"  drop ",
			"  out_depth_outcome ",
		} {
			if !strings.Contains(string(out), want) {
				t.Errorf("coverage output missing %q:\n%s", want, out)
			}
		}

		// Determinism at the CLI boundary: a second identical invocation
		// reproduces the coverage listing byte-for-byte.
		out2, err := exec.Command(filepath.Join(bin, "castanet"),
			"-campaign", "switch", "-runs", "16", "-shards", "2", "-seed", "1",
			"-coverage").CombinedOutput()
		if err != nil {
			t.Fatalf("second run: %v\n%s", err, out2)
		}
		cut := func(b []byte) string {
			s := string(b)
			if i := strings.Index(s, "group "); i >= 0 {
				return s[i:]
			}
			return ""
		}
		if c1, c2 := cut(out), cut(out2); c1 == "" || c1 != c2 {
			t.Errorf("coverage listing not deterministic:\n-- first --\n%s-- second --\n%s", c1, c2)
		}
	})

	t.Run("castanet-experiment-coverage", func(t *testing.T) {
		// -coverage on a single experiment prints the bins hit by that run.
		out, err := exec.Command(filepath.Join(bin, "castanet"),
			"-experiment", "e1", "-cells", "200", "-coverage").CombinedOutput()
		if err != nil {
			t.Fatalf("%v\n%s", err, out)
		}
		for _, want := range []string{"group coverify.cell_header", "group dut.queue", "group cosim.sync"} {
			if !strings.Contains(string(out), want) {
				t.Errorf("experiment coverage missing %q:\n%s", want, out)
			}
		}
	})

	t.Run("castanet-experiment-coverage-every-rig", func(t *testing.T) {
		// The accounting and policer experiments carry the same
		// observation handle as the switch rigs, so -coverage prints
		// their rig's own bins, not "no cover groups instrumented".
		for _, c := range []struct{ exp, group string }{
			{"e5", "group coverify.acct"},
			{"e7", "group coverify.policer"},
		} {
			out, err := exec.Command(filepath.Join(bin, "castanet"),
				"-experiment", c.exp, "-cells", "200", "-coverage").CombinedOutput()
			if err != nil {
				t.Fatalf("%s: %v\n%s", c.exp, err, out)
			}
			for _, want := range []string{c.group, "group cosim.sync"} {
				if !strings.Contains(string(out), want) {
					t.Errorf("%s coverage missing %q:\n%s", c.exp, want, out)
				}
			}
		}
	})

	t.Run("castanet-profile-every-rig", func(t *testing.T) {
		// Every rig publishes its HDL activity: the policer and accounting
		// campaigns and the policer sweep print a non-empty hotspot table.
		nonZero := regexp.MustCompile(`(?m)^profile processes=[1-9][0-9]* `)
		for _, args := range [][]string{
			{"-campaign", "policer", "-runs", "4", "-profile"},
			{"-campaign", "acct", "-runs", "4", "-profile"},
			{"-experiment", "e7", "-profile"},
		} {
			out, err := exec.Command(filepath.Join(bin, "castanet"), args...).CombinedOutput()
			if err != nil {
				t.Fatalf("%v: %v\n%s", args, err, out)
			}
			if !nonZero.Match(out) {
				t.Errorf("%v: no non-zero profile processes= line:\n%s", args, out)
			}
		}
	})

	t.Run("castanet-profile-no-silent-zeros", func(t *testing.T) {
		// An experiment that publishes no process runs is an error under
		// -profile, not an all-zero table.
		cmd := exec.Command(filepath.Join(bin, "castanet"), "-experiment", "e4", "-profile")
		var stderr strings.Builder
		cmd.Stderr = &stderr
		out, err := cmd.Output()
		if ee, ok := err.(*exec.ExitError); !ok || ee.ExitCode() != 2 {
			t.Fatalf("exit status = %v, want 2\n%s", err, out)
		}
		if !strings.Contains(stderr.String(), "no process runs published by e4") {
			t.Errorf("stderr does not name e4:\n%s", stderr.String())
		}
		if strings.Contains(string(out), "profile processes=") {
			t.Errorf("an activity table was printed:\n%s", out)
		}
	})

	t.Run("castanet-campaign-replay", func(t *testing.T) {
		out, err := exec.Command(filepath.Join(bin, "castanet"),
			"-campaign", "switch", "-runs", "8", "-seed", "1", "-replay", "3").CombinedOutput()
		if err != nil {
			t.Fatalf("%v\n%s", err, out)
		}
		if !strings.Contains(string(out), "replay run=000003") || !strings.Contains(string(out), "outcome: ok") {
			t.Errorf("replay output malformed:\n%s", out)
		}
	})

	t.Run("castanet-campaign-checkpoint-resume", func(t *testing.T) {
		// A checkpointed campaign that ran to completion resumes without
		// re-executing anything and reproduces a byte-identical digest file.
		ck := filepath.Join(bin, "campaign.ckpt")
		refDigest := filepath.Join(bin, "digest.ref")
		resDigest := filepath.Join(bin, "digest.res")
		args := []string{"-campaign", "switch", "-runs", "8", "-shards", "2", "-seed", "1",
			"-checkpoint", ck}
		out, err := exec.Command(filepath.Join(bin, "castanet"),
			append(args, "-digest", refDigest)...).CombinedOutput()
		if err != nil {
			t.Fatalf("checkpointed run: %v\n%s", err, out)
		}
		if _, err := os.Stat(ck); err != nil {
			t.Fatalf("checkpoint file missing: %v", err)
		}

		out, err = exec.Command(filepath.Join(bin, "castanet"),
			append(args, "-resume", "-digest", resDigest)...).CombinedOutput()
		if err != nil {
			t.Fatalf("resume: %v\n%s", err, out)
		}
		if !strings.Contains(string(out), "completed=8 failed=0 skipped=0") {
			t.Errorf("resumed summary wrong:\n%s", out)
		}
		ref, err := os.ReadFile(refDigest)
		if err != nil {
			t.Fatal(err)
		}
		res, err := os.ReadFile(resDigest)
		if err != nil {
			t.Fatal(err)
		}
		if string(ref) != string(res) {
			t.Errorf("resumed digest differs:\n-- reference --\n%s-- resumed --\n%s", ref, res)
		}

		// A checkpoint from a different campaign spec must be rejected.
		out, err = exec.Command(filepath.Join(bin, "castanet"),
			"-campaign", "switch", "-runs", "8", "-shards", "2", "-seed", "2",
			"-checkpoint", ck, "-resume").CombinedOutput()
		if err == nil {
			t.Fatalf("mismatched checkpoint accepted:\n%s", out)
		}
		if ee, ok := err.(*exec.ExitError); !ok || ee.ExitCode() != 2 {
			t.Errorf("mismatched checkpoint: exit status = %v, want 2", err)
		}
		if !strings.Contains(string(out), "different campaign") {
			t.Errorf("mismatch diagnostic missing:\n%s", out)
		}
	})

	t.Run("castanet-campaign-bad-flags", func(t *testing.T) {
		for name, args := range map[string][]string{
			"unknown name":         {"-campaign", "nope"},
			"zero runs":            {"-campaign", "switch", "-runs", "0"},
			"negative shards":      {"-campaign", "switch", "-shards", "-1"},
			"replay range":         {"-campaign", "switch", "-runs", "4", "-replay", "4"},
			"resume no checkpoint": {"-campaign", "switch", "-resume"},
			"negative retries":     {"-campaign", "switch", "-retries", "-1"},
			"negative run timeout": {"-campaign", "switch", "-run-timeout", "-1s"},
			"floor no campaign":    {"-experiment", "e1", "-cover-floor", "COVER_FLOOR.json"},
		} {
			out, err := exec.Command(filepath.Join(bin, "castanet"), args...).CombinedOutput()
			if err == nil {
				t.Fatalf("%s: accepted:\n%s", name, out)
			}
			if ee, ok := err.(*exec.ExitError); !ok || ee.ExitCode() != 2 {
				t.Errorf("%s: exit status = %v, want 2", name, err)
			}
			if !strings.Contains(string(out), "Usage") && !strings.Contains(string(out), "-campaign") {
				t.Errorf("%s: no usage text:\n%s", name, out)
			}
		}
	})

	t.Run("atmgen-roundtrip", func(t *testing.T) {
		trace := filepath.Join(bin, "t.trace")
		out, err := exec.Command(filepath.Join(bin, "atmgen"),
			"-model", "onoff", "-rate", "50000", "-burstiness", "4", "-n", "500", "-o", trace).CombinedOutput()
		if err != nil {
			t.Fatalf("%v\n%s", err, out)
		}
		data, err := os.ReadFile(trace)
		if err != nil {
			t.Fatal(err)
		}
		lines := strings.Count(string(data), "\n")
		if lines != 501 { // header + 500 intervals
			t.Errorf("trace has %d lines, want 501", lines)
		}
	})

	t.Run("atmgen-bad-model", func(t *testing.T) {
		if out, err := exec.Command(filepath.Join(bin, "atmgen"), "-model", "nope").CombinedOutput(); err == nil {
			t.Fatalf("unknown model accepted:\n%s", out)
		}
	})

	t.Run("boardctl", func(t *testing.T) {
		out, err := exec.Command(filepath.Join(bin, "boardctl"), "-device", "switch", "-demo").CombinedOutput()
		if err != nil {
			t.Fatalf("%v\n%s", err, out)
		}
		for _, want := range []string{"VALID", "byte lane", "demo test cycle", "hardware activity"} {
			if !strings.Contains(string(out), want) {
				t.Errorf("output missing %q:\n%s", want, out)
			}
		}
		// The accounting unit is the bus-interfaced device: its µP data
		// bus maps to a bidirectional lane (§3.3), and its exception
		// strobe ends an automatic-duration test cycle.
		out, err = exec.Command(filepath.Join(bin, "boardctl"), "-device", "accounting", "-demo").CombinedOutput()
		if err != nil {
			t.Fatalf("%v\n%s", err, out)
		}
		for _, want := range []string{
			"lane  9  bidir",
			"I/O port mappings:\n  bus_in       / bus_out      ctrl bus_oe     write-value 1  byte lane  9  start bit 0  bits 8  (pins 72..79)\n",
			"test cycle stopped after 53 of 1000 cycles",
		} {
			if !strings.Contains(string(out), want) {
				t.Errorf("accounting output missing %q:\n%s", want, out)
			}
		}
	})
}
