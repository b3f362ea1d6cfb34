package conformance

import (
	"strings"
	"testing"

	"castanet/internal/atm"
	"castanet/internal/hdl"
	"castanet/internal/mapping"
	"castanet/internal/sim"
)

func TestStandardSuiteStructure(t *testing.T) {
	s := StandardSuite(atm.VC{VPI: 1, VCI: 100})
	if len(s.Vectors) < 15 {
		t.Fatalf("suite has only %d vectors", len(s.Vectors))
	}
	names := map[string]bool{}
	var hecVectors, passVectors int
	for i := range s.Vectors {
		v := &s.Vectors[i]
		if names[v.Name] {
			t.Errorf("duplicate vector name %q", v.Name)
		}
		names[v.Name] = true
		if strings.HasPrefix(v.Name, "hec-corrupt") {
			hecVectors++
			if !v.ExpectDiscard {
				t.Errorf("%s must expect discard", v.Name)
			}
			if c, _ := atm.Unmarshal(v.Image); c != nil {
				t.Errorf("%s parses as a valid cell", v.Name)
			}
		}
		if !v.ExpectDiscard {
			passVectors++
			if c, _ := atm.Unmarshal(v.Image); c == nil {
				t.Errorf("%s expected to pass but is invalid", v.Name)
			}
		}
	}
	if hecVectors != atm.HeaderBytes {
		t.Errorf("hec vectors = %d, want %d", hecVectors, atm.HeaderBytes)
	}
	if passVectors == 0 {
		t.Error("no passing vectors")
	}
}

func TestEvaluate(t *testing.T) {
	v := &Vector{Name: "x", ExpectDiscard: true}
	if r := Evaluate(v, true); r.Passed {
		t.Error("discard vector delivered but passed")
	}
	if r := Evaluate(v, false); !r.Passed {
		t.Error("discard vector dropped but failed")
	}
	p := &Vector{Name: "y"}
	if r := Evaluate(p, true); !r.Passed {
		t.Error("pass vector delivered but failed")
	}
	if r := Evaluate(p, false); r.Passed {
		t.Error("pass vector dropped but passed")
	}
}

// TestSuiteAgainstHDLReader replays the full suite against the bit-level
// cell reader, checking that exactly the HEC-corrupted vectors are
// rejected at the delineation layer.
func TestSuiteAgainstHDLReader(t *testing.T) {
	s := StandardSuite(atm.VC{VPI: 1, VCI: 100})
	h := hdl.New()
	clk := h.Bit("clk", hdl.U)
	h.Clock(clk, 10*sim.Nanosecond)
	data := h.Signal("data", 8, hdl.U)
	sync := h.Bit("sync", hdl.U)
	dd := data.Driver("tb")
	ds := sync.Driver("tb")

	delivered := map[string]bool{}
	rd := mapping.NewCellPortReader(h, "rx", clk, data, sync)
	var order []string
	rd.OnCell = func(c *atm.Cell) {
		// Identify the vector by position in the replay order.
		delivered[order[rd.Received+rd.Errors-1]] = true
	}

	// Drive all vectors back to back; remember the name per cell slot.
	cycle := 0
	for i := range s.Vectors {
		v := &s.Vectors[i]
		order = append(order, v.Name)
		for b := 0; b < atm.CellBytes; b++ {
			b := b
			img := v.Image
			at := sim.Duration(cycle)*10*sim.Nanosecond + 2*sim.Nanosecond
			h.Schedule(at, func() {
				dd.SetUint(uint64(img[b]))
				if b == 0 {
					ds.SetBit(hdl.L1)
				} else {
					ds.SetBit(hdl.L0)
				}
			})
			cycle++
		}
	}
	if err := h.Run(sim.Duration(cycle+5) * 10 * sim.Nanosecond); err != nil {
		t.Fatal(err)
	}
	// The bit-level layer rejects exactly the HEC-corrupt vectors; idle
	// and unknown-VC filtering happens in the devices above it.
	for i := range s.Vectors {
		v := &s.Vectors[i]
		isHEC := strings.HasPrefix(v.Name, "hec-corrupt")
		if isHEC && delivered[v.Name] {
			t.Errorf("%s delivered despite bad HEC", v.Name)
		}
		if !isHEC && !delivered[v.Name] {
			t.Errorf("%s lost at delineation layer", v.Name)
		}
	}
	if int(rd.Errors) != atm.HeaderBytes {
		t.Errorf("HEC errors = %d, want %d", rd.Errors, atm.HeaderBytes)
	}
}
