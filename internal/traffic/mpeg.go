package traffic

import (
	"bufio"
	"fmt"
	"io"

	"castanet/internal/atm"
	"castanet/internal/sim"
)

// MPEG models a compressed video source, the paper's example of a
// simulated real-world trace driving the hardware ("for example MPEG
// traces"). Frames follow the classic group-of-pictures pattern
// IBBPBBPBBPBB at a fixed frame rate; each frame's size is drawn from a
// per-type lognormal-like distribution (normal in log domain, clamped),
// segmented into ATM cells (48 payload octets each) transmitted
// back-to-back at the start of the frame period.
type MPEG struct {
	FrameRate float64 // frames per second, e.g. 25
	// Mean frame sizes in bytes per frame type.
	MeanI, MeanP, MeanB float64
	// CV is the coefficient of variation of frame sizes.
	CV float64
	// LinkCellTime spaces the cells of one frame burst; zero emits the
	// whole frame back-to-back with zero spacing.
	LinkCellTime sim.Duration

	gopPos    int
	cellsLeft int
	occupied  sim.Duration // duration of the current frame's burst
	primed    bool
}

// DefaultMPEG returns parameters resembling published MPEG-1 trace
// statistics (e.g. the Bellcore Star Wars trace): 25 fps, mean I/P/B frame
// sizes 16/8/3 KB.
func DefaultMPEG(linkCellTime sim.Duration) *MPEG {
	return &MPEG{
		FrameRate:    25,
		MeanI:        16000,
		MeanP:        8000,
		MeanB:        3000,
		CV:           0.3,
		LinkCellTime: linkCellTime,
	}
}

// gop is the group-of-pictures frame-type pattern.
var gop = []byte("IBBPBBPBBPBB")

// frameCells draws the next frame's size and converts it to a cell count.
func (m *MPEG) frameCells(rng *sim.RNG) int {
	var mean float64
	switch gop[m.gopPos] {
	case 'I':
		mean = m.MeanI
	case 'P':
		mean = m.MeanP
	default:
		mean = m.MeanB
	}
	m.gopPos = (m.gopPos + 1) % len(gop)
	size := rng.Norm(mean, m.CV*mean)
	if size < mean/10 {
		size = mean / 10
	}
	cells := int(size) / atm.PayloadBytes
	if cells < 1 {
		cells = 1
	}
	return cells
}

// Next implements Model: it returns the spacing to the next cell, emitting
// each frame as a burst of cells followed by an idle gap to the next frame
// boundary.
func (m *MPEG) Next(rng *sim.RNG) sim.Duration {
	framePeriod := sim.FromSeconds(1 / m.FrameRate)
	if !m.primed {
		m.primed = true
		m.cellsLeft = m.frameCells(rng)
		m.occupied = sim.Duration(m.cellsLeft-1) * m.LinkCellTime
		return 0 // first cell at the first frame boundary
	}
	if m.cellsLeft > 1 {
		m.cellsLeft--
		return m.LinkCellTime
	}
	// Frame finished: idle until the next frame period starts. The gap is
	// the frame period minus the time the finished burst occupied.
	gap := framePeriod - m.occupied
	if gap < m.LinkCellTime {
		gap = m.LinkCellTime // source saturates the link
	}
	m.cellsLeft = m.frameCells(rng)
	m.occupied = sim.Duration(m.cellsLeft-1) * m.LinkCellTime
	return gap
}

// WriteTrace records n inter-arrival intervals of a model to w in the
// plain-text trace format: one integer picosecond count per line with a
// header comment. This is the mechanism for capturing "simulated
// real-world traces" for replay against the hardware test board.
func WriteTrace(w io.Writer, m Model, rng *sim.RNG, n int) error {
	bw := bufio.NewWriter(w)
	if _, err := fmt.Fprintf(bw, "# castanet trace, %d intervals, unit ps\n", n); err != nil {
		return err
	}
	for i := 0; i < n; i++ {
		if _, err := fmt.Fprintf(bw, "%d\n", int64(m.Next(rng))); err != nil {
			return err
		}
	}
	return bw.Flush()
}
