package coverify

import (
	"encoding/hex"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"castanet/internal/atm"
	"castanet/internal/conformance"
	"castanet/internal/sim"
	"castanet/internal/traffic"
)

// Golden conformance-vector tests: the checked-in files under testdata/
// pin the standardized vector set and the bit-exact end state the rigs
// must reproduce for it. Regenerate them after an intentional change with
//
//	go test ./internal/coverify -run TestGolden -update
//
// and review the diff like any other code change — an unexplained delta
// in a golden file is a behavioural regression, not noise.
var update = flag.Bool("update", false, "rewrite golden files under testdata/")

func goldenCompare(t *testing.T, path string, got string) {
	t.Helper()
	full := filepath.Join("testdata", path)
	if *update {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(full, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(full)
	if err != nil {
		t.Fatalf("missing golden file (run with -update to create): %v", err)
	}
	if got != string(want) {
		t.Errorf("%s drifted from golden:\n-- got --\n%s-- want --\n%s", path, got, want)
	}
}

// goldenVC is the known connection all golden vectors address.
var goldenVC = atm.VC{VPI: 1, VCI: 10}

// TestGoldenConformanceSuite pins the standardized vector set: the
// 53-octet images, their names, and their pass/discard expectations must
// not drift, because every rig and example that replays the suite depends
// on them. The golden holds one vector per line as "name flag hex".
func TestGoldenConformanceSuite(t *testing.T) {
	suite := conformance.StandardSuite(goldenVC)
	var b strings.Builder
	fmt.Fprintf(&b, "# castanet conformance suite %q, %d vectors\n", suite.Name, len(suite.Vectors))
	for _, v := range suite.Vectors {
		flag := "pass"
		if v.ExpectDiscard {
			flag = "discard"
		}
		fmt.Fprintf(&b, "%s %s %s\n", v.Name, flag, hex.EncodeToString(v.Image[:]))
	}
	goldenCompare(t, "conformance_standard.txt", b.String())
}

// TestGoldenAcctConformance replays the golden vector file through the
// accounting rig and pins the complete end state. The in-run assertion is
// bit-exactness: every hardware counter must equal the reference meter's.
func TestGoldenAcctConformance(t *testing.T) {
	suite := conformance.StandardSuite(goldenVC)
	rig := NewAcctRig(AcctRigConfig{
		Seed:   7,
		VCs:    []atm.VC{goldenVC, {VPI: 2, VCI: 20}},
		Tariff: atm.Tariff{CellsPerUnit: 5},
		Sources: []AcctSource{
			{Model: traffic.NewCBR(100e3), VC: 1, Cells: 40},
			{Model: traffic.NewCBR(90e3), VC: -1, Cells: 10},
		},
	})
	at := sim.Microsecond
	for i := range suite.Vectors {
		rig.InjectVector(at, suite.Vectors[i].Image)
		at += 60 * sim.Microsecond
	}
	if err := rig.Run(3 * sim.Millisecond); err != nil {
		t.Fatal(err)
	}
	if m := rig.Compare(); len(m) != 0 {
		t.Fatalf("hardware counters diverged from the reference: %+v", m)
	}

	var b strings.Builder
	fmt.Fprintf(&b, "# acct end state: golden vectors + fixed stochastic phase, seed 7\n")
	fmt.Fprintf(&b, "%s\n", rig.Report())
	for _, vc := range rig.Cfg.VCs {
		rec, _ := rig.Ref.Record(vc)
		refU, dutU := rig.Units(vc)
		fmt.Fprintf(&b, "vc=%s cells=%d clp1=%d units_ref=%d units_dut=%d\n",
			vc, rec.Cells, rec.CLP1Cells, refU, dutU)
	}
	fmt.Fprintf(&b, "unregistered_ref=%d unregistered_dut=%d\n", rig.Ref.Unregistered, rig.DUT.Unregistered)
	goldenCompare(t, "acct_conformance.txt", b.String())
}

// TestGoldenSwitchReport pins the switch rig's deterministic end-of-run
// report for a fixed seed and workload: cell counts, per-engine event
// totals, clock cycles. The in-run assertion is again bit-exactness —
// the refmodel comparator must end clean.
func TestGoldenSwitchReport(t *testing.T) {
	cfg := SwitchRigConfig{Seed: 11}
	for p := 0; p < 4; p++ {
		cfg.Traffic[p] = PortTraffic{
			Model: traffic.NewCBR(100e3),
			VCs:   PortVCs(p),
			Cells: 24,
		}
	}
	rig := NewSwitchRig(cfg)
	if err := rig.Run(2 * sim.Millisecond); err != nil {
		t.Fatal(err)
	}
	if !rig.Cmp.Clean() {
		t.Fatalf("comparison not clean: %s", rig.Cmp.Summary())
	}
	goldenCompare(t, "switch_report.txt", rig.Report()+"\n")
}
