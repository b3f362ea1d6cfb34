// Command boardctl inspects and validates hardware test board
// configuration data sets (§3.3, Fig. 5): it prints the pin mapping of
// the built-in device configurations and checks them against the device's
// port list, the way the board's configuration software would before a
// verification session.
//
// Usage:
//
//	boardctl -device switch          # print + validate the switch mapping
//	boardctl -device accounting
//	boardctl -demo                   # the Fig.-5 style walkthrough
package main

import (
	"flag"
	"fmt"
	"os"

	"castanet/internal/atm"
	"castanet/internal/board"
	"castanet/internal/cyclesim"
)

func main() {
	var (
		device = flag.String("device", "switch", "device under test: switch, accounting")
		demo   = flag.Bool("demo", false, "run the Fig.-5 demo test cycle")
	)
	flag.Parse()

	var dev cyclesim.Device
	var cfg board.ConfigDataSet
	switch *device {
	case "switch":
		tb := atm.NewTranslator()
		tb.Add(atm.VC{VPI: 1, VCI: 100}, atm.Route{Port: 2, Out: atm.VC{VPI: 0x10, VCI: 0x202}})
		dev = cyclesim.NewSwitch(tb, 4, 32)
		cfg = board.SwitchConfig()
	case "accounting":
		acct := cyclesim.NewBusAccounting(16)
		acct.Register(atm.VC{VPI: 1, VCI: 100})
		dev = acct
		cfg = board.AccountingConfig()
	default:
		fmt.Fprintf(os.Stderr, "boardctl: unknown device %q\n", *device)
		os.Exit(2)
	}

	if err := cfg.Validate(dev); err != nil {
		fmt.Fprintln(os.Stderr, "boardctl: configuration INVALID:", err)
		os.Exit(1)
	}
	fmt.Printf("configuration data set for %q: VALID\n\n", *device)
	printConfig(cfg)

	if *demo {
		runDemo(dev, cfg)
	}
}

func printConfig(cfg board.ConfigDataSet) {
	fmt.Println("byte lanes:")
	for i, l := range cfg.Lanes {
		if l.Dir == board.Unused {
			continue
		}
		div := l.Divider
		if div == 0 {
			div = 1
		}
		fmt.Printf("  lane %2d  %-7s  divider %d\n", i, l.Dir, div)
	}
	fmt.Println("\ninport mappings:")
	for _, m := range cfg.Inports {
		printMapping(m.Port, m.Pins)
	}
	fmt.Println("\noutport mappings:")
	for _, m := range cfg.Outports {
		printMapping(m.Port, m.Pins)
	}
	if len(cfg.IOPorts) > 0 {
		fmt.Println("\nI/O port mappings:")
		for _, m := range cfg.IOPorts {
			fmt.Printf("  %-12s / %-12s ctrl %-10s write-value %d ", m.InPort, m.OutPort, m.CtrlPort, m.WriteValue)
			printMapping("", m.Pins)
		}
	}
}

func printMapping(port string, pr board.PinRange) {
	fmt.Printf("  %-12s byte lane %2d  start bit %d  bits %d  (pins %d..%d)\n",
		port, pr.Lane, pr.StartBit, pr.Bits,
		pr.Lane*board.PinsPerLane+pr.StartBit,
		pr.Lane*board.PinsPerLane+pr.StartBit+pr.Bits-1)
}

func runDemo(dev cyclesim.Device, cfg board.ConfigDataSet) {
	fmt.Println("\n--- demo test cycle ---")
	b := board.New(dev, 20e6, 4096)
	if err := b.Configure(cfg); err != nil {
		fmt.Fprintln(os.Stderr, "boardctl:", err)
		os.Exit(1)
	}
	// One idle test cycle: demonstrates the SW/HW/SW activity split.
	if _, err := b.RunTestCycle(make([]board.Frame, 1000)); err != nil {
		fmt.Fprintln(os.Stderr, "boardctl:", err)
		os.Exit(1)
	}
	fmt.Println(b)
	fmt.Printf("hardware activity: %v at 20 MHz (%d cycles)\n", b.HWTime, b.HWCycles)
	fmt.Printf("software activity: %v (SCSI transfers: stimuli + responses)\n", b.SWTime)
	if _, ok := dev.(*cyclesim.BusAccounting); ok {
		runAutoDuration(b)
	}
}

// runAutoDuration shows the automatic test-cycle duration of §3.3: one
// cell on an unregistered connection raises the accounting unit's
// exception control port, and the hardware stops there instead of
// clocking the whole stimulus.
func runAutoDuration(b *board.Board) {
	stim := make([]board.Frame, 1000)
	img := (&atm.Cell{Header: atm.Header{VPI: 9, VCI: 99}}).Marshal()
	data, sync := inportPins(b.Cfg, "rx_data"), inportPins(b.Cfg, "rx_sync")
	for i, v := range img {
		stim[i][data.Lane] |= v << data.StartBit
	}
	stim[0][sync.Lane] |= 1 << sync.StartBit
	resp, err := b.RunTestCycleAuto(stim, "exception", 1)
	if err != nil {
		fmt.Fprintln(os.Stderr, "boardctl:", err)
		os.Exit(1)
	}
	fmt.Printf("automatic duration: unregistered cell raised exception=1; test cycle stopped after %d of %d cycles\n",
		len(resp), len(stim))
}

// inportPins returns the pins an inport is mapped to.
func inportPins(cfg board.ConfigDataSet, port string) board.PinRange {
	for _, m := range cfg.Inports {
		if m.Port == port {
			return m.Pins
		}
	}
	panic("boardctl: no inport " + port)
}
