// Package mpeg implements the MPEG-MMX study (Section 5.2): applying the
// correction matrices of P and B frames with MMX saturating arithmetic,
// the portion of the MPEG codec the paper's current work covers.
//
// Conventional partition: the processor streams reference and correction
// blocks through 64-bit MMX registers — each instruction produces 32 bits
// of result data (the SimpleScalar MMX restriction the paper notes).
//
// Active-Page partition: frames are blocked across pages; the processor
// dispatches wide RADram-MMX instructions, each applying a packed
// saturating add across a large block region (up to 256 KB of result per
// instruction), and the pages execute them in parallel.
package mpeg

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
	seed = 1996
	// instrBlockHW is the halfword span one wide RADram-MMX instruction
	// covers; the processor issues one control write per instruction, so
	// activation time grows with page size (Table 4 shows MPEG-MMX has the
	// largest T_A of the workload).
	instrBlockHW = 4096
	// laneCount is the MMX datapath width in 16-bit lanes; with a 32-bit
	// subarray port the circuit sustains two lanes per cycle plus a write
	// cycle (three cycles per four halfwords).
	laneCount = 2
)

// Benchmark is the MPEG-MMX kernel.
type Benchmark struct{}

// Name implements apps.Benchmark.
func (Benchmark) Name() string { return "mpeg-mmx" }

// Partitioning implements apps.Benchmark.
func (Benchmark) Partitioning() apps.Partitioning { return apps.ProcessorCentric }

// Description implements apps.Benchmark.
func (Benchmark) Description() string {
	return "processor dispatches MMX; pages execute wide MMX instructions"
}

// hwPerPage returns the halfwords of frame data one page holds (reference,
// correction, and output regions share the page).
func hwPerPage(m *radram.Machine) int {
	return int(layout.UsableBytes(m)) / 6
}

// Run implements apps.Benchmark.
func (Benchmark) Run(m *radram.Machine, pages float64) error {
	perPage := hwPerPage(m)
	blocks := int(pages*float64(perPage)) / 64
	if blocks < 1 {
		blocks = 1
	}
	frame := workload.SharedMPEGFrame(seed, blocks)
	want := workload.SharedMPEGCorrected(seed, blocks)

	var got []int16
	var err error
	if m.AP == nil {
		got = runConventional(m, frame)
	} else {
		got, err = runRADram(m, frame)
		if err != nil {
			return err
		}
	}
	for i := range want {
		if got[i] != want[i] {
			return fmt.Errorf("mpeg: sample %d = %d, want %d", i, got[i], want[i])
		}
	}
	return nil
}

func saturate(v int32) int16 {
	if v > 32767 {
		return 32767
	}
	if v < -32768 {
		return -32768
	}
	return int16(v)
}

// packU16 reinterprets a sample slice as raw halfwords for bulk store
// writes (setup helper, not timed).
func packU16(src []int16) []uint16 {
	out := make([]uint16, len(src))
	for i, v := range src {
		out[i] = uint16(v)
	}
	return out
}

// ---------------------------------------------------------------------------
// Conventional implementation: SimpleScalar-style MMX loop.

func runConventional(m *radram.Machine, f *workload.MPEGFrame) []int16 {
	base := uint64(layout.DataBase)
	n := len(f.Reference)
	refB := base
	corB := base + uint64(n)*2
	outB := corB + uint64(n)*2
	m.Store.WriteU16Slice(refB, packU16(f.Reference))
	m.Store.WriteU16Slice(corB, packU16(f.Correction))

	cpu := m.CPU
	out := make([]int16, n)
	// Four halfwords per iteration: movq.l ref, movq.l corr, paddsw,
	// movq.s — but SimpleScalar MMX produces only 32 bits per instruction
	// (Section 5.2), so each 64-bit store issues as two instructions. The
	// loop is an exact fixed-stride pattern (two 8-byte loads and one 8-byte
	// store per iteration, all advancing by 8), so the stream layer can fold
	// its steady state; the saturating adds run host-side with the result
	// written to the store in one bulk move.
	full := n / 4
	accs := [3]memsys.StreamAcc{
		{Off: 0, Size: 8, Count: 1, Kind: memsys.Read},
		{Off: int64(corB - refB), Size: 8, Count: 1, Kind: memsys.Read},
		{Off: int64(outB - refB), Size: 8, Count: 1, Kind: memsys.Write},
	}
	cpu.Stream(refB, 8, uint64(full), accs[:], 2+2)
	for i := full * 4; i < n; i += 4 {
		cpu.TouchLoad(refB+uint64(i)*2, 8)
		cpu.TouchLoad(corB+uint64(i)*2, 8)
		cpu.Compute(2 + 2)
		cpu.TouchStore(outB+uint64(i)*2, 8)
	}
	for i := range out {
		out[i] = saturate(int32(f.Reference[i]) + int32(f.Correction[i]))
	}
	m.Store.WriteU16Slice(outB, packU16(out))
	return out
}

// ---------------------------------------------------------------------------
// Active-Page implementation.

// Page layout: header | reference hw | correction hw | output hw.

// wideMMXFn executes one wide paddsw instruction over a halfword range.
// The lane scratch slices persist across activations (functions are bound
// per machine, single-threaded).
type wideMMXFn struct {
	ref, cor, out []uint16
}

func (*wideMMXFn) Name() string          { return "mmx-paddsw" }
func (*wideMMXFn) Design() *logic.Design { return circuits.MPEGMMX() }

func (f *wideMMXFn) Run(ctx *core.PageContext) (core.Result, error) {
	startHW, countHW, totalHW := ctx.Args[0], ctx.Args[1], ctx.Args[2]
	refOff := uint64(layout.HeaderBytes)
	corOff := refOff + totalHW*2
	outOff := corOff + totalHW*2
	if uint64(len(f.ref)) < countHW {
		f.ref = make([]uint16, countHW)
		f.cor = make([]uint16, countHW)
		f.out = make([]uint16, countHW)
	}
	ref, cor, out := f.ref[:countHW], f.cor[:countHW], f.out[:countHW]
	ctx.ReadU16Slice(refOff+startHW*2, ref)
	ctx.ReadU16Slice(corOff+startHW*2, cor)
	for i := range ref {
		out[i] = uint16(saturate(int32(int16(ref[i])) + int32(int16(cor[i]))))
	}
	ctx.WriteU16Slice(outOff+startHW*2, out)
	// Two 16-bit lanes per datapath cycle; one write cycle per two lanes.
	return ctx.Finish(countHW / laneCount * 3 / 2)
}

func runRADram(m *radram.Machine, f *workload.MPEGFrame) ([]int16, error) {
	perPage := hwPerPage(m)
	n := len(f.Reference)
	nPages := (n + perPage - 1) / perPage
	pagesList, err := m.AP.AllocRange("mpeg", layout.DataBase, uint64(nPages))
	if err != nil {
		return nil, err
	}
	if err := m.AP.Bind("mpeg", &wideMMXFn{}); err != nil {
		return nil, err
	}

	// Block the frame across pages (setup, not timed).
	refHW := packU16(f.Reference)
	corHW := packU16(f.Correction)
	for p := 0; p < nPages; p++ {
		base := pagesList[p].Base
		first := p * perPage
		cnt := min(perPage, n-first)
		refOff := base + layout.HeaderBytes
		corOff := refOff + uint64(perPage)*2
		m.Store.WriteU16Slice(refOff, refHW[first:first+cnt])
		m.Store.WriteU16Slice(corOff, corHW[first:first+cnt])
	}

	// Dispatch: one wide-MMX instruction per instrBlockHW halfwords. The
	// first becomes the page activation; the rest are additional control-
	// word writes (the paper's memory-mapped instruction dispatch).
	cpu := m.CPU
	for p := 0; p < nPages; p++ {
		first := p * perPage
		cnt := min(perPage, n-first)
		issued := false
		for s := 0; s < cnt; s += instrBlockHW {
			c := min(instrBlockHW, cnt-s)
			if !issued {
				if err := m.AP.Activate(pagesList[p], "mmx-paddsw",
					uint64(s), uint64(c), uint64(perPage)); err != nil {
					return nil, err
				}
				issued = true
				continue
			}
			// Subsequent instructions to the same page: control write plus
			// queued execution, modeled as an activation with no dispatch
			// marshalling beyond the write itself.
			if err := m.AP.Activate(pagesList[p], "mmx-paddsw",
				uint64(s), uint64(c), uint64(perPage)); err != nil {
				return nil, err
			}
		}
	}

	// Collect: the corrected frame stays in memory for the next codec
	// stage; the processor checks completion per page.
	out := make([]int16, n)
	outHW := make([]uint16, perPage)
	for p := 0; p < nPages; p++ {
		m.AP.Wait(pagesList[p])
		base := pagesList[p].Base
		first := p * perPage
		cnt := min(perPage, n-first)
		outOff := base + layout.HeaderBytes + uint64(perPage)*4
		m.Store.ReadU16Slice(outOff, outHW[:cnt])
		for i := 0; i < cnt; i++ {
			out[first+i] = int16(outHW[i])
		}
		cpu.Compute(6)
	}
	return out, nil
}
