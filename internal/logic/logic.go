// Package logic models the reconfigurable logic RADram attaches to each
// 512 KB DRAM subarray: 256 LEs (logic elements), where an LE is the
// standard FPGA block built around a 4-input lookup table (4-LUT) plus a
// flip-flop, as in the Altera FLEX-10K parts the paper synthesizes to.
//
// The package provides a behavioral circuit IR — designs are composed from
// datapath and control primitives — and a technology mapper/estimator that
// reports the three quantities of the paper's Table 3 for each design:
//
//   - LEs: logic elements consumed (completely or partially used)
//   - Speed: the critical register-to-register path in nanoseconds
//   - Code: the configuration bitstream ("code bloat") size in bytes
//
// The estimator's per-primitive formulas follow standard 4-LUT mapping
// results (ripple-carry arithmetic at one LE per bit, comparator reduction
// trees, one 2:1 mux bit per LE) with FLEX-10K-era delays, calibrated so the
// seven application circuits of Table 3 land at the paper's reported sizes.
package logic

import (
	"fmt"
	"math"

	"activepages/internal/sim"
)

// PageLEBudget is the number of LEs RADram provides per 512 KB subarray
// (Section 3 of the paper).
const PageLEBudget = 256

// BytesPerLE is the configuration-bitstream cost of one LE, including its
// share of routing configuration. Table 3's code sizes average ~25.5
// bytes/LE across the seven circuits.
const BytesPerLE = 25.5

// bitstreamOverheadBytes is the fixed per-design configuration overhead
// (frame headers, I/O ring).
const bitstreamOverheadBytes = 96

// Timing constants for the mapped technology (DRAM-process FPGA fabric; the
// paper is "conservative and assumes a DRAM process with associated
// penalties in logic speed").
const (
	lutDelayNs    = 2.6 // one 4-LUT evaluation
	routeDelayNs  = 1.7 // average inter-LE routing hop
	carryPerBitNs = 0.32
	clockOverhead = 4.2 // clk-to-q + setup
)

// Primitive is one datapath or control element in a design.
type Primitive struct {
	Kind  Kind
	Width int // datapath width in bits, where applicable
	Ways  int // mux inputs / FSM states / raw LUT count, by kind
	Name  string
}

// Kind enumerates the supported primitive types.
type Kind int

const (
	// Register is a W-bit pipeline or state register.
	Register Kind = iota
	// Adder is a W-bit ripple-carry adder/subtractor.
	Adder
	// Counter is a W-bit loadable up/down counter.
	Counter
	// CompareEq is a W-bit equality comparator (XNOR + AND reduction tree).
	CompareEq
	// CompareMag is a W-bit magnitude comparator (carry-chain based).
	CompareMag
	// Mux is a W-bit N-way multiplexer (Ways = N).
	Mux
	// FSM is a control state machine with Ways states.
	FSM
	// MemPort is the interface to the DRAM subarray: address counter, data
	// latch, and handshake control for one 32-bit port.
	MemPort
	// RawLUTs is Ways 4-LUTs of unstructured logic with Width levels of
	// depth (Width=0 means a single level).
	RawLUTs
	// MinMax is a W-bit compare-and-swap unit (a magnitude comparator plus
	// two muxes), the building block of median/sorting networks.
	MinMax
	// MultiplierStage is one W-bit partial-product row of a sequential
	// multiplier.
	MultiplierStage
	// SaturatingAdder is a W-bit adder with saturation clamp logic, the
	// MMX packed-arithmetic element.
	SaturatingAdder
)

var kindNames = map[Kind]string{
	Register:        "register",
	Adder:           "adder",
	Counter:         "counter",
	CompareEq:       "compare-eq",
	CompareMag:      "compare-mag",
	Mux:             "mux",
	FSM:             "fsm",
	MemPort:         "mem-port",
	RawLUTs:         "raw-luts",
	MinMax:          "min-max",
	MultiplierStage: "multiplier-stage",
	SaturatingAdder: "saturating-adder",
}

// String names the kind.
func (k Kind) String() string {
	if s, ok := kindNames[k]; ok {
		return s
	}
	return fmt.Sprintf("kind(%d)", int(k))
}

// les returns the LE cost of p.
func (p Primitive) les() int {
	w := p.Width
	switch p.Kind {
	case Register:
		return w // one FF per bit; each lives in an LE
	case Adder:
		return w // ripple carry: one LE per bit
	case Counter:
		return w + 1 // adder bits + enable/load control
	case CompareEq:
		// W/2 XNOR-pair LUTs, then a 4-ary AND reduction tree.
		n := (w + 1) / 2
		tree := 0
		for n > 1 {
			n = (n + 3) / 4
			tree += n
		}
		return (w+1)/2 + tree
	case CompareMag:
		return (w + 1) / 2 // two bits per LE using the carry chain
	case Mux:
		// Tree of 2:1 muxes: (N-1) per bit, one 2:1 mux bit per LE.
		if p.Ways < 2 {
			return 0
		}
		return w * (p.Ways - 1)
	case FSM:
		// State register + next-state and output logic. Empirically ~1.5
		// LEs per state for the paper's small controllers.
		s := p.Ways
		if s < 2 {
			s = 2
		}
		bits := int(math.Ceil(math.Log2(float64(s))))
		return bits + (3*s+1)/2
	case MemPort:
		// 20-bit address counter + 32-bit data latch + handshake.
		return 21 + 8 + 6
	case RawLUTs:
		return p.Ways
	case MinMax:
		// Magnitude compare + two W-bit 2:1 muxes.
		return (w+1)/2 + 2*w
	case MultiplierStage:
		// Add-shift row: adder + partial product AND row.
		return w + (w+1)/2
	case SaturatingAdder:
		// Adder + overflow detect + clamp mux.
		return w + 2 + w/2
	default:
		return 0
	}
}

// depthNs returns the combinational delay contribution of p in nanoseconds.
func (p Primitive) depthNs() float64 {
	w := float64(p.Width)
	switch p.Kind {
	case Register:
		return 0
	case Adder, Counter:
		return lutDelayNs + carryPerBitNs*w
	case CompareEq:
		levels := 1 + math.Ceil(math.Log(math.Max(w/2, 1))/math.Log(4))
		return levels*lutDelayNs + (levels-1)*routeDelayNs
	case CompareMag:
		return lutDelayNs + carryPerBitNs*w/2
	case Mux:
		levels := math.Ceil(math.Log2(math.Max(float64(p.Ways), 2)))
		return levels*lutDelayNs + (levels-1)*routeDelayNs
	case FSM:
		return 2*lutDelayNs + routeDelayNs
	case MemPort:
		return lutDelayNs + routeDelayNs
	case RawLUTs:
		levels := math.Max(float64(p.Width), 1)
		return levels*lutDelayNs + (levels-1)*routeDelayNs
	case MinMax:
		return lutDelayNs + carryPerBitNs*w/2 + lutDelayNs + routeDelayNs
	case MultiplierStage:
		return 2*lutDelayNs + carryPerBitNs*w
	case SaturatingAdder:
		return 2*lutDelayNs + carryPerBitNs*w + routeDelayNs
	default:
		return 0
	}
}

// Design is a behavioral circuit: a named collection of primitives plus a
// declared pipeline depth describing how many primitive stages are chained
// combinationally between registers (1 = every primitive registered).
type Design struct {
	Name string
	// Stages lists the primitives on the longest combinational path, in
	// order. Their delays add up to the critical path.
	Stages []Primitive
	// Rest lists primitives off the critical path (parallel datapath,
	// control, secondary counters). They cost area but not delay.
	Rest []Primitive
}

// NewDesign returns an empty design with the given name.
func NewDesign(name string) *Design {
	return &Design{Name: name}
}

// OnPath appends a primitive to the critical path.
func (d *Design) OnPath(p Primitive) *Design {
	d.Stages = append(d.Stages, p)
	return d
}

// Off appends a primitive off the critical path.
func (d *Design) Off(p Primitive) *Design {
	d.Rest = append(d.Rest, p)
	return d
}

// Report is the synthesis estimate for a design: the three columns of the
// paper's Table 3.
type Report struct {
	Name string
	// LEs is the logic-element count, including partially used LEs.
	LEs int
	// SpeedNs is the critical-path delay in nanoseconds.
	SpeedNs float64
	// CodeBytes is the configuration bitstream size.
	CodeBytes int
}

// Synthesize maps the design to 4-LUT technology and estimates area, speed,
// and configuration size.
func Synthesize(d *Design) Report {
	les := 0
	for _, p := range d.Stages {
		les += p.les()
	}
	for _, p := range d.Rest {
		les += p.les()
	}
	delay := clockOverhead
	for i, p := range d.Stages {
		delay += p.depthNs()
		if i > 0 {
			delay += routeDelayNs
		}
	}
	return Report{
		Name:      d.Name,
		LEs:       les,
		SpeedNs:   math.Round(delay*10) / 10,
		CodeBytes: bitstreamOverheadBytes + int(float64(les)*BytesPerLE),
	}
}

// CodeKB renders the bitstream size in the paper's unit.
func (r Report) CodeKB() float64 {
	return math.Round(float64(r.CodeBytes)/1024*10) / 10
}

// FitsBudget reports whether the design fits the per-page LE budget.
func (r Report) FitsBudget() bool { return r.LEs <= PageLEBudget }

// ReconfigurationTime estimates how long loading the design's bitstream into
// a page's logic takes, given the configuration port bandwidth. The paper
// notes current FPGAs take hundreds of milliseconds for full chips and that
// Active-Page replacement should cost 2-4x a conventional page move; the
// default port (one byte per logic cycle at 100 MHz) puts a ~3 KB bitstream
// in the tens of microseconds, standing in for the faster reconfigurable
// technologies the paper projects ([DeH96a]).
func ReconfigurationTime(r Report, logicClock sim.Clock) sim.Duration {
	return logicClock.Cycles(uint64(r.CodeBytes))
}

// SerialReconfigurationTime estimates bitstream load time through a
// serial configuration port of the given bandwidth — the mechanism of the
// FPGA generation the paper discusses for page replacement, where
// reconfiguration makes swapping an Active Page "2-4 times larger than for
// conventional pages". The paper also notes future technologies
// ([DeH96a]) cut this by orders of magnitude; pass a higher rate to model
// them.
func SerialReconfigurationTime(r Report, bitsPerSecond uint64) sim.Duration {
	if bitsPerSecond == 0 {
		return 0
	}
	bits := uint64(r.CodeBytes) * 8
	return sim.Duration(bits * uint64(sim.Second) / bitsPerSecond)
}

// DefaultSerialConfigBps is a period-appropriate serial configuration
// rate (12 Mb/s).
const DefaultSerialConfigBps = 12_000_000
