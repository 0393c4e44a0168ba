// Package lcs implements the dynamic-programming study (Section 5.1):
// largest common subsequence of two DNA-alphabet strings, the core of
// sequence-comparison pipelines.
//
// Conventional partition: the processor fills the n x m score table row by
// row and backtracks.
//
// Active-Page partition: the table is divided into horizontal strips, one
// per page. Each page's circuit computes the MIN/MAX recurrence one cell
// per logic cycle; strips execute as a wavefront — page i consumes page
// i-1's bottom row chunk by chunk as it is produced, through processor-
// mediated inter-page references (Section 3). Backtracking runs on the
// processor (Table 2).
package lcs

import (
	"fmt"

	"activepages/internal/apps"
	"activepages/internal/apps/layout"
	"activepages/internal/circuits"
	"activepages/internal/core"
	"activepages/internal/logic"
	"activepages/internal/memsys"
	"activepages/internal/radram"
	"activepages/internal/workload"
)

const (
	seed = 11
	// M is the fixed second-sequence length (table columns); problem size
	// scales the first sequence (table rows).
	M = 1024
	// borderChunks is how many chunks the inter-strip border streams in —
	// the wavefront granularity.
	borderChunks = 32
)

// Page layout (offsets):
//
//	header (256 B)
//	B sequence:   M bytes
//	A strip:      rows bytes (padded to 4)
//	north border: M*2 bytes (bottom row of the previous strip)
//	table strip:  rows*M*2 bytes
const (
	offB = layout.HeaderBytes
)

// strip describes a page's share of the table.
type strip struct {
	firstRow, rows int
}

// rowsPerPage returns the strip height a page can hold.
func rowsPerPage(m *radram.Machine) int {
	usable := int(layout.UsableBytes(m))
	rows := (usable - M - 2*M - 64) / (2*M + 1)
	if rows < 1 {
		rows = 1
	}
	return rows
}

// Benchmark is the dynamic-programming kernel.
type Benchmark struct{}

// Name implements apps.Benchmark.
func (Benchmark) Name() string { return "dynamic-prog" }

// Partitioning implements apps.Benchmark.
func (Benchmark) Partitioning() apps.Partitioning { return apps.MemoryCentric }

// Description implements apps.Benchmark.
func (Benchmark) Description() string {
	return "processor backtracks; pages compute MINs and fill the score table"
}

// Run implements apps.Benchmark.
func (Benchmark) Run(m *radram.Machine, pages float64) error {
	rows := rowsPerPage(m)
	n := int(pages * float64(rows))
	if n < 4 {
		n = 4
	}
	a, b, want := workload.SharedLCSInput(seed, n, M)

	var got int
	var err error
	if m.AP == nil {
		got = runConventional(m, a, b)
	} else {
		got, err = runRADram(m, a, b)
		if err != nil {
			return err
		}
	}
	if got != want {
		return fmt.Errorf("lcs: length %d, want %d", got, want)
	}
	return nil
}

// cell computes the LCS recurrence.
func cell(match bool, nw, n, w uint16) uint16 {
	if match {
		return nw + 1
	}
	if n >= w {
		return n
	}
	return w
}

// ---------------------------------------------------------------------------
// Conventional implementation: row-major fill at DataBase.

// runConventional fills the table row by row. The recurrence values mirror
// host-side while the timing charges through the stream layer: each row is
// one fixed-shape sweep over j — a byte read of b[j] (per-access stride
// override), a halfword read of the previous row, and a halfword write of
// the current row — so the memory system batches it even though the mixed
// byte/halfword strides keep it out of the fold fast path (and the
// stationary b region would defeat period verification anyway). Each
// finished row writes to the store in one bulk operation (backtracking and
// the corner read the table from the store, so it must hold the real
// values).
func runConventional(m *radram.Machine, a, b []byte) int {
	base := uint64(layout.DataBase)
	aBase := base
	bBase := base + uint64(len(a)+4)
	tBase := bBase + uint64(len(b)+4)
	m.Store.Write(aBase, a) // setup
	m.Store.Write(bBase, b)

	cpu := m.CPU
	n := len(a)
	rowAddr := func(i int) uint64 { return tBase + uint64(i)*uint64(len(b))*2 }

	prev := make([]uint16, len(b))
	cur := make([]uint16, len(b))
	for i := 0; i < n; i++ {
		cpu.TouchLoad(aBase+uint64(i), 1)
		ai := a[i]
		var west uint16
		for j := 0; j < len(b); j++ {
			var north, nw uint16
			if i > 0 {
				north = prev[j]
				if j > 0 {
					// Northwest shares the previous row's line; register-
					// carried in optimized code, one charged op.
					nw = prev[j-1]
				}
			}
			v := cell(ai == b[j], nw, north, west)
			cur[j] = v
			west = v
		}
		rb := rowAddr(i)
		accs := [3]memsys.StreamAcc{
			{Off: int64(bBase) - int64(rb), Size: 1, Count: 1, Kind: memsys.Read, Stride: 1},
			{Off: -int64(len(b)) * 2, Size: 2, Count: 1, Kind: memsys.Read},
			{Size: 2, Count: 1, Kind: memsys.Write},
		}
		sweep := accs[:]
		if i == 0 {
			// Row 0 has no north neighbor.
			sweep = append(accs[:1:1], accs[2])
		}
		cpu.Stream(rb, 2, uint64(len(b)), sweep, 7)
		m.Store.WriteU16Slice(rb, cur) // functional row, not timed
		prev, cur = cur, prev
	}
	// Read the corner (the backtracking phase starts here; the length is
	// the verified result).
	return int(cpu.LoadU16(rowAddr(n-1) + uint64(len(b)-1)*2))
}

// ---------------------------------------------------------------------------
// Active-Page implementation.

// fillFn computes one strip of the table. The fill is functional — timing
// is the Finish cycle count plus the wavefront delay — so it bulk-reads the
// sequences and north border and writes the table row by row. Scratch
// buffers persist across activations (functions are bound per machine,
// single-threaded).
type fillFn struct {
	strips []strip
	pages  []*core.Page

	bSeq, aStrip []byte
	north, row   []uint16
}

func (*fillFn) Name() string          { return "lcs-fill" }
func (*fillFn) Design() *logic.Design { return circuits.DynamicProg() }

func (f *fillFn) Run(ctx *core.PageContext) (core.Result, error) {
	si := int(ctx.Args[0])
	st := f.strips[si]
	rows := st.rows

	offA := uint64(offB + M)
	offNorth := offA + uint64((rows+3)&^3)
	offTable := offNorth + M*2

	if si > 0 {
		// Stream the previous strip's bottom row in as it is produced.
		prev := f.pages[si-1]
		prevStrip := f.strips[si-1]
		prevOffTable := uint64(offB+M) + uint64((prevStrip.rows+3)&^3) + M*2
		srcRow := prev.Base + prevOffTable + uint64(prevStrip.rows-1)*M*2
		ctx.StreamedCopy(offNorth, srcRow, M*2, borderChunks)

		// Wavefront pipelining: this strip finishes one border-chunk lag
		// after its predecessor, or after its own full fill, whichever is
		// later. Express the pipeline bound so the runtime's
		// done = start + C yields done >= prevDone + lag.
		clk := ctx.LogicClock()
		lag := clk.Cycles(uint64(rows)*(M/borderChunks)) +
			ctx.MediationCost(M*2/borderChunks)
		c := clk.Cycles(uint64(rows) * M)
		prevDone := ctx.PageDone(prev.Index)
		if prevDone+lag > c {
			ctx.DelayUntil(prevDone + lag - c)
		}
	}

	// Functional fill.
	if f.bSeq == nil {
		f.bSeq = make([]byte, M)
		f.north = make([]uint16, M)
		f.row = make([]uint16, M)
	}
	if len(f.aStrip) < rows {
		f.aStrip = make([]byte, rows)
	}
	bSeq, north, row := f.bSeq, f.north, f.row
	aStrip := f.aStrip[:rows]
	ctx.Read(offB, bSeq)
	ctx.Read(offA, aStrip)
	ctx.ReadU16Slice(offNorth, north)
	if si == 0 {
		for j := range north {
			north[j] = 0
		}
	}
	for r := 0; r < rows; r++ {
		ai := aStrip[r]
		var west, nw uint16 // column -1 is all zeros
		for j := 0; j < M; j++ {
			v := cell(ai == bSeq[j], nw, north[j], west)
			row[j] = v
			nw = north[j]
			north[j] = v
			west = v
		}
		ctx.WriteU16Slice(offTable+uint64(r)*M*2, row)
	}
	return ctx.Finish(uint64(rows) * M)
}

func runRADram(m *radram.Machine, a, b []byte) (int, error) {
	rows := rowsPerPage(m)
	n := len(a)
	nPages := (n + rows - 1) / rows

	pagesList, err := m.AP.AllocRange("lcs", layout.DataBase, uint64(nPages))
	if err != nil {
		return 0, err
	}
	strips := make([]strip, nPages)
	for i := range strips {
		first := i * rows
		strips[i] = strip{firstRow: first, rows: min(rows, n-first)}
	}
	fn := &fillFn{strips: strips, pages: pagesList}
	if err := m.AP.Bind("lcs", fn); err != nil {
		return 0, err
	}

	// Place sequences into pages (setup, not timed).
	for i, st := range strips {
		base := pagesList[i].Base
		m.Store.Write(base+offB, b)
		m.Store.Write(base+offB+M, a[st.firstRow:st.firstRow+st.rows])
	}

	// Activate strips in order; the wavefront overlaps them.
	for i := range strips {
		if err := m.AP.Activate(pagesList[i], "lcs-fill", uint64(i)); err != nil {
			return 0, err
		}
	}
	m.AP.Wait(pagesList[nPages-1])

	// Backtracking phase on the processor: walk from the corner.
	cpu := m.CPU
	last := strips[nPages-1]
	offA := uint64(offB + M)
	tableOff := func(st strip) uint64 {
		return offA + uint64((st.rows+3)&^3) + M*2
	}
	corner := pagesList[nPages-1].Base + tableOff(last) +
		uint64(last.rows-1)*M*2 + (M-1)*2
	length := int(cpu.LoadU16(corner))

	// Walk the table to reconstruct the subsequence (processor reads).
	i, j := n-1, int(M-1)
	matched := 0
	for i >= 0 && j >= 0 && matched < length {
		si := i / rows
		st := strips[si]
		r := i - st.firstRow
		base := pagesList[si].Base
		read := func(ii, jj int) uint16 {
			if ii < 0 || jj < 0 {
				return 0
			}
			ssi := ii / rows
			sst := strips[ssi]
			return cpu.LoadU16(pagesList[ssi].Base + tableOff(sst) +
				uint64(ii-sst.firstRow)*M*2 + uint64(jj)*2)
		}
		cur := cpu.LoadU16(base + tableOff(st) + uint64(r)*M*2 + uint64(j)*2)
		cpu.Compute(8)
		switch {
		case i > 0 && read(i-1, j) == cur:
			i--
		case j > 0 && read(i, j-1) == cur:
			j--
		default:
			matched++
			i--
			j--
		}
	}
	if matched != length {
		return 0, fmt.Errorf("lcs: backtrack recovered %d symbols, corner says %d", matched, length)
	}
	return length, nil
}
