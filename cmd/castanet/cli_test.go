package main

import (
	"context"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"

	"castanet/internal/campaign"
	"castanet/internal/experiments"
)

// cliBin is the castanet binary under test, built once in TestMain so
// the CLI tests exercise real flag parsing, exit codes and stderr.
var cliBin string

func TestMain(m *testing.M) {
	dir, err := os.MkdirTemp("", "castanet-cli")
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	cliBin = filepath.Join(dir, "castanet")
	if out, err := exec.Command("go", "build", "-o", cliBin, ".").CombinedOutput(); err != nil {
		fmt.Fprintf(os.Stderr, "build castanet: %v\n%s", err, out)
		os.RemoveAll(dir)
		os.Exit(1)
	}
	code := m.Run()
	os.RemoveAll(dir)
	os.Exit(code)
}

// runCLI executes the binary and returns stdout+stderr and the exit code.
func runCLI(t *testing.T, args ...string) (string, int) {
	t.Helper()
	out, err := exec.Command(cliBin, args...).CombinedOutput()
	if err == nil {
		return string(out), 0
	}
	var exit *exec.ExitError
	if !strings.Contains(err.Error(), "exit status") {
		t.Fatalf("castanet %v: %v\n%s", args, err, out)
	}
	exit = err.(*exec.ExitError)
	return string(out), exit.ExitCode()
}

// TestCoverFloorPreflight: a bad floor file is an operator error caught
// before the campaign runs — exit status 2 with a diagnostic naming the
// problem, never a post-campaign JSON stack trace.
func TestCoverFloorPreflight(t *testing.T) {
	if testing.Short() {
		t.Skip("subprocess CLI tests in -short mode")
	}
	dir := t.TempDir()
	write := func(name, content string) string {
		p := filepath.Join(dir, name)
		if err := os.WriteFile(p, []byte(content), 0o644); err != nil {
			t.Fatal(err)
		}
		return p
	}
	cases := []struct {
		name string
		path string
		want string
	}{
		{"missing-file", filepath.Join(dir, "nope.json"), "cannot read"},
		{"malformed-json", write("bad.json", "{not json"), "not a floor file"},
		{"ratio-out-of-range", write("range.json", `{"switch":{"dut.queue":1.5}}`), "outside [0, 1]"},
		{"no-campaign-section", write("nosect.json", `{"faults":{"dut.queue":0.5}}`), "no section for campaign"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			out, code := runCLI(t, "-campaign", "switch", "-runs", "1", "-cover-floor", tc.path)
			if code != 2 {
				t.Errorf("exit %d, want 2 (operator error)\n%s", code, out)
			}
			if !strings.Contains(out, "cover floor") || !strings.Contains(out, tc.want) {
				t.Errorf("diagnostic missing %q:\n%s", tc.want, out)
			}
		})
	}
}

// TestCellsCapNotice: an experiment that runs fewer cells than -cells
// asks for says so on stderr, naming the value it used, while stdout is
// exactly that of a run asked for the capped value; a request within the
// cap prints nothing on stderr.
func TestCellsCapNotice(t *testing.T) {
	if testing.Short() {
		t.Skip("subprocess CLI tests in -short mode")
	}
	run := func(cells string) (stdout, stderr string) {
		var out, errb strings.Builder
		cmd := exec.Command(cliBin, "-experiment", "e3", "-cells", cells)
		cmd.Stdout, cmd.Stderr = &out, &errb
		if err := cmd.Run(); err != nil {
			t.Fatalf("-cells %s: %v\n%s", cells, err, errb.String())
		}
		return out.String(), errb.String()
	}
	capOut, capErr := run("1500")
	want := "castanet: e3: -cells 1500 capped at 1000\n"
	if capErr != want {
		t.Errorf("stderr = %q, want %q", capErr, want)
	}
	plainOut, plainErr := run("1000")
	if plainErr != "" {
		t.Errorf("stderr within the cap = %q, want empty", plainErr)
	}
	if capOut != plainOut {
		t.Errorf("capped stdout differs from -cells 1000:\n-- capped --\n%s-- 1000 --\n%s", capOut, plainOut)
	}
}

// TestExploreFlagValidation: the -explore flag family rejects conflicts
// and nonsense with exit status 2 before any work starts.
func TestExploreFlagValidation(t *testing.T) {
	if testing.Short() {
		t.Skip("subprocess CLI tests in -short mode")
	}
	cases := []struct {
		name string
		args []string
		want string
	}{
		{"explore-and-campaign", []string{"-explore", "-campaign", "switch"}, "mutually exclusive"},
		{"cover-target-without-explore", []string{"-cover-target", "dut.queue"}, "requires -explore"},
		{"explore-and-cover-floor", []string{"-explore", "-cover-floor", "x.json"}, "applies to -campaign"},
		{"zero-generations", []string{"-explore", "-generations", "0"}, "-generations"},
		{"zero-population", []string{"-explore", "-population", "0"}, "-population"},
		{"replay-out-of-range", []string{"-explore", "-generations", "2", "-population", "3", "-replay", "6"}, "out of range"},
		{"resume-without-checkpoint", []string{"-explore", "-resume"}, "-resume requires"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			out, code := runCLI(t, tc.args...)
			if code != 2 {
				t.Errorf("exit %d, want 2\n%s", code, out)
			}
			if !strings.Contains(out, tc.want) {
				t.Errorf("diagnostic missing %q:\n%s", tc.want, out)
			}
		})
	}
}

// TestExploreEndToEnd: a pinned-seed exploration completes clean, its
// digest is byte-identical across shard counts, and -replay re-executes
// one of its runs in isolation.
func TestExploreEndToEnd(t *testing.T) {
	if testing.Short() {
		t.Skip("full co-verification rigs in -short mode")
	}
	dir := t.TempDir()
	d1 := filepath.Join(dir, "d1")
	d2 := filepath.Join(dir, "d2")
	base := []string{"-explore", "-generations", "2", "-population", "3", "-seed", "11"}

	out, code := runCLI(t, append(base, "-shards", "2", "-digest", d1)...)
	if code != 0 {
		t.Fatalf("exploration exit %d:\n%s", code, out)
	}
	if !strings.Contains(out, "gen=001") || !strings.Contains(out, "complete") {
		t.Errorf("report missing ladder/completion:\n%s", out)
	}

	if out, code = runCLI(t, append(base, "-shards", "1", "-digest", d2)...); code != 0 {
		t.Fatalf("second exploration exit %d:\n%s", code, out)
	}
	b1, err := os.ReadFile(d1)
	if err != nil {
		t.Fatal(err)
	}
	b2, err := os.ReadFile(d2)
	if err != nil {
		t.Fatal(err)
	}
	if string(b1) != string(b2) {
		t.Errorf("digest differs across shard counts:\n--- shards=2\n%s\n--- shards=1\n%s", b1, b2)
	}
	if !strings.Contains(string(b1), "explore covered=") {
		t.Errorf("digest missing summary line:\n%s", b1)
	}

	out, code = runCLI(t, append(base, "-replay", "1")...)
	if code != 0 {
		t.Fatalf("replay exit %d:\n%s", code, out)
	}
	if !strings.Contains(out, "replay run=000001") || !strings.Contains(out, "outcome: ok") {
		t.Errorf("replay output unexpected:\n%s", out)
	}
}

// TestCampaignDigestShardInvariant: the campaign -digest file is a pure
// function of the spec. The policer campaign's non-integral load_ratio
// sum and the header both once depended on the shard count; with
// coverage and profile on, 1 and 3 shards must write the same bytes.
func TestCampaignDigestShardInvariant(t *testing.T) {
	if testing.Short() {
		t.Skip("full co-verification rigs in -short mode")
	}
	dir := t.TempDir()
	digest := func(shards string) []byte {
		path := filepath.Join(dir, "digest-"+shards)
		out, code := runCLI(t, "-campaign", "policer", "-runs", "48", "-seed", "7",
			"-coverage", "-profile", "-shards", shards, "-digest", path)
		if code != 0 {
			t.Fatalf("campaign at -shards %s: exit %d\n%s", shards, code, out)
		}
		b, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		return b
	}
	d1, d3 := digest("1"), digest("3")
	if string(d1) != string(d3) {
		t.Errorf("digest differs across shard counts:\n--- shards=1\n%s\n--- shards=3\n%s", d1, d3)
	}
	for _, want := range []string{"stat load_ratio n=48 ", "coverage:", "profile "} {
		if !strings.Contains(string(d1), want) {
			t.Errorf("digest missing %q:\n%s", want, d1)
		}
	}
}

// TestTableFaultsCampaign: E8's fault sweep as a campaign. The 260-run
// -digest file (one sweep of the matrix, coverage on) is byte-identical
// at 1 and 3 shards, and replaying an escaped fault's run alone gives the
// outcome it had in the campaign. Run i depends only on (seed, i), so the
// campaign's outcomes are taken from its first 65 runs: the one-port
// bench, where 48 of the 64 faults escape.
func TestTableFaultsCampaign(t *testing.T) {
	if testing.Short() {
		t.Skip("full co-verification rigs in -short mode")
	}
	dir := t.TempDir()
	digest := func(shards string) []byte {
		path := filepath.Join(dir, "digest-"+shards)
		out, code := runCLI(t, "-campaign", "tablefaults", "-runs", "260", "-seed", "1",
			"-coverage", "-shards", shards, "-digest", path)
		if code != 0 {
			t.Fatalf("campaign at -shards %s: exit %d\n%s", shards, code, out)
		}
		b, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		return b
	}
	d1, d3 := digest("1"), digest("3")
	if string(d1) != string(d3) {
		t.Errorf("digest differs across shard counts:\n--- shards=1\n%s\n--- shards=3\n%s", d1, d3)
	}
	for _, want := range []string{"completed=260 failed=0", "stat detected.p1 n=64 sum=16 ", "stat detected.p4 n=64 sum=64 ", "faultsim.fault"} {
		if !strings.Contains(string(d1), want) {
			t.Errorf("digest missing %q:\n%s", want, d1)
		}
	}

	matrix, err := experiments.CampaignMatrix("tablefaults")
	if err != nil {
		t.Fatal(err)
	}
	spec := campaign.Spec{Name: "tablefaults", Seed: 1, Runs: 65, Matrix: matrix}
	outcome := make(map[uint64]bool)
	collect := spec
	collect.OnResult = func(res campaign.Result) {
		if d, ok := res.Value.(bool); ok {
			outcome[res.Index] = d
		}
	}
	if sum, err := campaign.Execute(context.Background(), collect); err != nil || !sum.Clean() {
		t.Fatalf("one-port sweep: err=%v summary=%+v", err, sum)
	}
	escaped := uint64(0)
	for i := uint64(1); i < 65; i++ {
		if !outcome[i] {
			escaped = i
			break
		}
	}
	if escaped == 0 || len(outcome) != 64 {
		t.Fatalf("no escaped fault among %d one-port outcomes", len(outcome))
	}
	res, err := campaign.Replay(context.Background(), spec, escaped)
	if err != nil {
		t.Fatal(err)
	}
	if d, ok := res.Value.(bool); res.Err != nil || !ok || d {
		t.Errorf("replay of escaped run %d (%s): err=%v detected=%v, want a clean escape",
			escaped, res.Cell.Name(), res.Err, res.Value)
	}
}

// TestReplayShowsObservedStats: -replay prints the stats the run
// observed, so an escaped fault, whose outcome is ok like the golden
// run's, is told apart from a detected one by its detected.p<n> stat.
func TestReplayShowsObservedStats(t *testing.T) {
	if testing.Short() {
		t.Skip("full co-verification rigs in -short mode")
	}
	for _, tc := range []struct {
		run, cell, stat string
	}{
		{"17", "cell=tablefaults/p1/2.100:wrong-port", "stat detected.p1 n=1 sum=0 min=0 max=0\n"},
		{"1", "cell=tablefaults/p1/1.100:wrong-port", "stat detected.p1 n=1 sum=1 min=1 max=1\n"},
	} {
		out, code := runCLI(t, "-campaign", "tablefaults", "-runs", "260", "-seed", "1", "-replay", tc.run)
		if code != 0 {
			t.Fatalf("replay %s: exit %d\n%s", tc.run, code, out)
		}
		for _, want := range []string{tc.cell, tc.stat, "outcome: ok"} {
			if !strings.Contains(out, want) {
				t.Errorf("replay %s missing %q:\n%s", tc.run, want, out)
			}
		}
	}
}
