package cpu

import (
	"strings"
	"testing"

	"activepages/internal/asm"
	"activepages/internal/mem"
	"activepages/internal/memsys"
	"activepages/internal/sim"
)

func run(t *testing.T, src string) *Core {
	t.Helper()
	c, err := tryRun(src)
	if err != nil {
		t.Fatal(err)
	}
	return c
}

func tryRun(src string) (*Core, error) {
	img, err := asm.Assemble(src)
	if err != nil {
		return nil, err
	}
	store := mem.NewStore()
	h := memsys.New(memsys.DefaultConfig())
	c := New(DefaultConfig(), h, store)
	c.Load(img)
	if _, err := c.Run(50_000_000); err != nil {
		return c, err
	}
	return c, nil
}

func TestArithmetic(t *testing.T) {
	c := run(t, `
		li r1, 10
		li r2, 3
		add r3, r1, r2
		sub r4, r1, r2
		mul r5, r1, r2
		div r6, r1, r2
		rem r7, r1, r2
		halt
	`)
	checks := map[uint8]uint32{3: 13, 4: 7, 5: 30, 6: 3, 7: 1}
	for r, want := range checks {
		if got := c.Reg(r); got != want {
			t.Errorf("r%d = %d, want %d", r, got, want)
		}
	}
}

func TestSignedOps(t *testing.T) {
	c := run(t, `
		li r1, -7
		li r2, 2
		div r3, r1, r2
		slt r4, r1, r2
		sltu r5, r1, r2
		srai r6, r1, 1
		srli r7, r1, 1
		halt
	`)
	if int32(c.Reg(3)) != -3 {
		t.Errorf("div -7/2 = %d", int32(c.Reg(3)))
	}
	if c.Reg(4) != 1 {
		t.Error("slt signed wrong")
	}
	if c.Reg(5) != 0 {
		t.Error("sltu treated -7 as less than 2")
	}
	if int32(c.Reg(6)) != -4 {
		t.Errorf("srai = %d, want -4", int32(c.Reg(6)))
	}
	if c.Reg(7) != 0x7FFFFFFC {
		t.Errorf("srli = %#x", c.Reg(7))
	}
}

func TestR0IsHardwiredZero(t *testing.T) {
	c := run(t, `
		addi r0, r0, 55
		move r1, r0
		halt
	`)
	if c.Reg(0) != 0 || c.Reg(1) != 0 {
		t.Fatal("r0 is writable")
	}
}

func TestLoadsStores(t *testing.T) {
	c := run(t, `
		.data
	buf: .space 16
		.text
	main:
		la r1, buf
		li r2, -2
		sb r2, 0(r1)
		lb r3, 0(r1)
		lbu r4, 0(r1)
		li r5, -3
		sh r5, 4(r1)
		lh r6, 4(r1)
		lhu r7, 4(r1)
		li r8, 0xCAFEBABE
		sw r8, 8(r1)
		lw r9, 8(r1)
		halt
	`)
	if int32(c.Reg(3)) != -2 {
		t.Errorf("lb = %d", int32(c.Reg(3)))
	}
	if c.Reg(4) != 0xFE {
		t.Errorf("lbu = %#x", c.Reg(4))
	}
	if int32(c.Reg(6)) != -3 {
		t.Errorf("lh = %d", int32(c.Reg(6)))
	}
	if c.Reg(7) != 0xFFFD {
		t.Errorf("lhu = %#x", c.Reg(7))
	}
	if c.Reg(9) != 0xCAFEBABE {
		t.Errorf("lw = %#x", c.Reg(9))
	}
}

func TestLoopSum(t *testing.T) {
	// Sum 1..100 = 5050.
	c := run(t, `
		clear r1      # sum
		li r2, 1      # i
		li r3, 101
	loop:
		add r1, r1, r2
		addi r2, r2, 1
		bne r2, r3, loop
		halt
	`)
	if c.Reg(1) != 5050 {
		t.Fatalf("sum = %d, want 5050", c.Reg(1))
	}
	if c.Stats.Instructions < 300 {
		t.Errorf("instruction count = %d, expected ~303", c.Stats.Instructions)
	}
}

func TestCallReturn(t *testing.T) {
	c := run(t, `
	main:
		li r4, 5
		jal double
		move r10, r2
		halt
	double:
		add r2, r4, r4
		jr ra
	`)
	if c.Reg(10) != 10 {
		t.Fatalf("double(5) = %d", c.Reg(10))
	}
}

func TestSyscallPrint(t *testing.T) {
	c := run(t, `
		li r2, 1
		li r4, -123
		syscall
		li r2, 2
		li r4, '!'
		syscall
		halt
	`)
	if got := c.Output.String(); got != "-123!" {
		t.Fatalf("output = %q", got)
	}
}

func TestMMXSaturatingAdd(t *testing.T) {
	c := run(t, `
		.data
	a: .half 30000, -30000, 5, -5
	b: .half 10000, -10000, 7, -7
	out: .space 8
		.text
	main:
		la r1, a
		la r2, b
		la r3, out
		movq.l m0, 0(r1)
		movq.l m1, 0(r2)
		paddsw m2, m0, m1
		movq.s m2, 0(r3)
		halt
	`)
	img, _ := asm.Assemble(".data\nx: .word 0")
	_ = img
	// Expect saturation: 30000+10000 -> 32767, -30000-10000 -> -32768.
	outAddr := uint64(asm.DefaultDataBase + 16)
	vals := []int16{32767, -32768, 12, -12}
	for i, want := range vals {
		got := int16(c.storeRead16(outAddr + uint64(i*2)))
		if got != want {
			t.Errorf("lane %d = %d, want %d", i, got, want)
		}
	}
}

// storeRead16 exposes the backing store for tests.
func (c *Core) storeRead16(addr uint64) uint16 { return c.store.ReadU16(addr) }

func TestMMXPackedByteOps(t *testing.T) {
	c := run(t, `
		.data
	a: .byte 250, 10, 1, 2, 3, 4, 5, 6
	b: .byte 10, 250, 1, 1, 1, 1, 1, 1
	out1: .space 8
	out2: .space 8
		.text
	main:
		la r1, a
		movq.l m0, 0(r1)
		movq.l m1, 8(r1)
		paddb m2, m0, m1
		paddusb m3, m0, m1
		movq.s m2, 16(r1)
		movq.s m3, 24(r1)
		halt
	`)
	base := uint64(asm.DefaultDataBase)
	// Wrapping: 250+10 = 260 -> 4. Saturating: -> 255.
	if got := c.store.ByteAt(base + 16); got != 4 {
		t.Errorf("paddb lane0 = %d, want 4", got)
	}
	if got := c.store.ByteAt(base + 24); got != 255 {
		t.Errorf("paddusb lane0 = %d, want 255", got)
	}
	if got := c.store.ByteAt(base + 17); got != 4 {
		t.Errorf("paddb lane1 = %d, want 4 (10+250 wraps)", got)
	}
}

func TestMMXLogicAndMul(t *testing.T) {
	c := run(t, `
		.data
	a: .half 3, 4, -2, 100
	b: .half 5, 6, 3, 100
	out: .space 24
		.text
	main:
		la r1, a
		movq.l m0, 0(r1)
		movq.l m1, 8(r1)
		pmullw m2, m0, m1
		pand m3, m0, m1
		pxor m4, m0, m1
		movq.s m2, 16(r1)
		movq.s m3, 24(r1)
		movq.s m4, 32(r1)
		halt
	`)
	base := uint64(asm.DefaultDataBase + 16)
	want := []int16{15, 24, -6, 10000}
	for i, w := range want {
		if got := int16(c.store.ReadU16(base + uint64(i*2))); got != w {
			t.Errorf("pmullw lane %d = %d, want %d", i, got, w)
		}
	}
}

func TestHaltStopsExecution(t *testing.T) {
	c := run(t, "halt\naddi r1, r1, 1\n")
	if c.Reg(1) != 0 {
		t.Fatal("executed past halt")
	}
	if err := c.Step(); err == nil {
		t.Fatal("step after halt should error")
	}
}

func TestDivideByZeroFaults(t *testing.T) {
	_, err := tryRun("clear r1\ndiv r2, r1, r1\nhalt\n")
	if err == nil || !strings.Contains(err.Error(), "divide by zero") {
		t.Fatalf("err = %v", err)
	}
}

func TestRunawayProgramCapped(t *testing.T) {
	img, err := asm.Assemble("loop: b loop\n")
	if err != nil {
		t.Fatal(err)
	}
	store := mem.NewStore()
	c := New(DefaultConfig(), memsys.New(memsys.DefaultConfig()), store)
	c.Load(img)
	if _, err := c.Run(1000); err == nil {
		t.Fatal("runaway loop not capped")
	}
}

func TestTimingAccumulates(t *testing.T) {
	c := run(t, `
		li r1, 0
		li r2, 1000
	loop:
		addi r1, r1, 1
		bne r1, r2, loop
		halt
	`)
	if c.Now() == 0 {
		t.Fatal("no time elapsed")
	}
	// ~2005 instructions at 1 GHz with taken-branch penalties: at least 2 us.
	if c.Now() < 2*sim.Microsecond {
		t.Errorf("elapsed = %v, expected > 2us", c.Now())
	}
	if c.Stats.ComputeTime == 0 {
		t.Error("no compute time recorded")
	}
	if got := c.IPC(); got <= 0 || got > 1 {
		t.Errorf("IPC = %v, want (0, 1]", got)
	}
}

func TestMemStallsVisibleInStats(t *testing.T) {
	// Stream through 256 KB: guaranteed cache misses.
	c := run(t, `
		li r1, 0x00200000
		li r2, 0x00240000
	loop:
		lw r3, 0(r1)
		addi r1, r1, 32
		bne r1, r2, loop
		halt
	`)
	if c.Stats.MemTime == 0 {
		t.Fatal("streaming loads recorded no memory time")
	}
	if c.Stats.Loads != 8192 {
		t.Errorf("loads = %d, want 8192", c.Stats.Loads)
	}
}

func BenchmarkCoreALULoop(b *testing.B) {
	img, err := asm.Assemble(`
		li r1, 0
		li r2, 100000
	loop:
		addi r1, r1, 1
		bne r1, r2, loop
		halt
	`)
	if err != nil {
		b.Fatal(err)
	}
	for i := 0; i < b.N; i++ {
		store := mem.NewStore()
		c := New(DefaultConfig(), memsys.New(memsys.DefaultConfig()), store)
		c.Load(img)
		if _, err := c.Run(1_000_000); err != nil {
			b.Fatal(err)
		}
	}
}

func TestBimodalPredictorLearnsLoop(t *testing.T) {
	src := `
		li r1, 0
		li r2, 2000
	loop:
		addi r1, r1, 1
		bne r1, r2, loop
		halt
	`
	img, err := asm.Assemble(src)
	if err != nil {
		t.Fatal(err)
	}
	run := func(cfg Config) *Core {
		store := mem.NewStore()
		c := New(cfg, memsys.New(memsys.DefaultConfig()), store)
		c.Load(img)
		if _, err := c.Run(1_000_000); err != nil {
			t.Fatal(err)
		}
		return c
	}
	static := run(DefaultConfig())
	bimodal := run(Config{
		ClockHz:            1_000_000_000,
		TakenBranchPenalty: 1,
		Bimodal:            true,
		BimodalEntries:     2048,
		MispredictPenalty:  4,
	})
	// A 2000-iteration loop branch is almost always taken: the bimodal
	// predictor should mispredict only at the ends.
	if bimodal.Stats.Mispredicts > 4 {
		t.Fatalf("mispredicts = %d on a monotone loop", bimodal.Stats.Mispredicts)
	}
	if bimodal.Now() >= static.Now() {
		t.Fatalf("bimodal core (%v) not faster than static (%v) on a hot loop",
			bimodal.Now(), static.Now())
	}
}

func TestBimodalCountersSaturate(t *testing.T) {
	b := newBimodal(16)
	pc := uint32(0x1000)
	for i := 0; i < 10; i++ {
		b.update(pc, true)
	}
	if !b.lookup(pc) {
		t.Fatal("saturated-taken counter predicts not-taken")
	}
	// One not-taken outcome must not flip a saturated counter.
	b.update(pc, false)
	if !b.lookup(pc) {
		t.Fatal("hysteresis missing")
	}
	b.update(pc, false)
	b.update(pc, false)
	if b.lookup(pc) {
		t.Fatal("counter failed to learn the new direction")
	}
}

func TestBimodalTableSizing(t *testing.T) {
	b := newBimodal(1000)
	if len(b.counters) != 1024 {
		t.Fatalf("entries = %d, want next power of two (1024)", len(b.counters))
	}
	// Distinct branch PCs use distinct counters (within the table size).
	b.update(0x1000, true)
	b.update(0x1000, true)
	if b.lookup(0x1004) {
		t.Fatal("adjacent PC aliased onto the trained counter")
	}
}

func TestInstructionTrace(t *testing.T) {
	img, err := asm.Assemble("addi r1, r0, 5\nhalt\n")
	if err != nil {
		t.Fatal(err)
	}
	store := mem.NewStore()
	c := New(DefaultConfig(), memsys.New(memsys.DefaultConfig()), store)
	var trace strings.Builder
	c.Trace = &trace
	c.Load(img)
	if _, err := c.Run(10); err != nil {
		t.Fatal(err)
	}
	out := trace.String()
	if !strings.Contains(out, "addi r1, zero, 5") || !strings.Contains(out, "halt") {
		t.Fatalf("trace missing instructions:\n%s", out)
	}
	if !strings.Contains(out, "0x0000001000") {
		t.Fatalf("trace missing PCs:\n%s", out)
	}
}
