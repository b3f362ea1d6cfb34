package cyclesim

import "fmt"

// OutputPorts filters the output pin groups of a device.
func OutputPorts(d Device) []Port {
	var out []Port
	for _, p := range d.Ports() {
		if p.Dir == Out {
			out = append(out, p)
		}
	}
	return out
}

// PortIndex returns the position of the named port within its direction
// group (the index into Tick's in or out slice).
func PortIndex(d Device, name string) (idx int, dir Dir, err error) {
	ins, outs := 0, 0
	for _, p := range d.Ports() {
		if p.Name == name {
			if p.Dir == In {
				return ins, In, nil
			}
			return outs, Out, nil
		}
		if p.Dir == In {
			ins++
		} else {
			outs++
		}
	}
	return 0, In, fmt.Errorf("cyclesim: no port %q", name)
}

// Run clocks the device n times with all-zero inputs, discarding outputs —
// a convenience for settling sequences and speed measurements.
func Run(d Device, n int) {
	in := make([]uint64, len(InputPorts(d)))
	for i := 0; i < n; i++ {
		d.Tick(in)
	}
}

// InputPorts filters the input pin groups of a device.
func InputPorts(d Device) []Port {
	var out []Port
	for _, p := range d.Ports() {
		if p.Dir == In {
			out = append(out, p)
		}
	}
	return out
}
