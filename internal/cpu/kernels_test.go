package cpu

import (
	"fmt"
	"strings"
	"testing"

	"activepages/internal/asm"
	"activepages/internal/mem"
	"activepages/internal/memsys"
	"activepages/internal/workload"
)

// These tests run complete assembly kernels on the simulated core,
// cross-validating the ISA substrate against host-side references — the
// same role SimpleScalar's compiled benchmarks played in the paper's
// methodology.

func newCore() (*Core, *mem.Store, *memsys.Hierarchy) {
	store := mem.NewStore()
	h := memsys.New(memsys.DefaultConfig())
	return New(DefaultConfig(), h, store), store, h
}

func runProgram(t *testing.T, src string, setup func(*mem.Store)) *Core {
	t.Helper()
	img, err := asm.Assemble(src)
	if err != nil {
		t.Fatalf("assemble: %v", err)
	}
	c, store, _ := newCore()
	c.Load(img)
	if setup != nil {
		setup(store)
	}
	if _, err := c.Run(100_000_000); err != nil {
		t.Fatalf("run: %v", err)
	}
	return c
}

// memcpyKernel copies r4 bytes from address r5 to r6, word at a time with
// a byte-loop tail.
const memcpyKernel = `
main:
	li r5, 0x00200000    # src
	li r6, 0x00300000    # dst
	li r4, %d            # length
	srli r7, r4, 2       # whole words
wloop:
	beq r7, r0, tail
	lw r8, 0(r5)
	sw r8, 0(r6)
	addi r5, r5, 4
	addi r6, r6, 4
	addi r7, r7, -1
	b wloop
tail:
	andi r7, r4, 3
bloop:
	beq r7, r0, done
	lb r8, 0(r5)
	sb r8, 0(r6)
	addi r5, r5, 1
	addi r6, r6, 1
	addi r7, r7, -1
	b bloop
done:
	halt
`

func TestMemcpyKernel(t *testing.T) {
	const n = 1027 // force a byte tail
	src := make([]byte, n)
	for i := range src {
		src[i] = byte(i * 7)
	}
	c := runProgram(t, fmt.Sprintf(memcpyKernel, n), func(s *mem.Store) {
		s.Write(0x00200000, src)
	})
	got := make([]byte, n)
	c.store.Read(0x00300000, got)
	for i := range src {
		if got[i] != src[i] {
			t.Fatalf("byte %d = %d, want %d", i, got[i], src[i])
		}
	}
	if c.Stats.Loads < n/4 {
		t.Fatalf("too few loads: %d", c.Stats.Loads)
	}
}

// sumKernel sums r4 words at r5 into r2 and prints the result.
const sumKernel = `
main:
	li r5, 0x00200000
	li r4, %d
	clear r2
loop:
	beq r4, r0, done
	lw r8, 0(r5)
	add r2, r2, r8
	addi r5, r5, 4
	addi r4, r4, -1
	b loop
done:
	move r4, r2
	li r2, 1
	syscall
	halt
`

func TestSumKernel(t *testing.T) {
	const n = 500
	want := int32(0)
	c := runProgram(t, fmt.Sprintf(sumKernel, n), func(s *mem.Store) {
		for i := 0; i < n; i++ {
			v := int32(i*13 - 900)
			want += v
			s.WriteU32(0x00200000+uint64(i)*4, uint32(v))
		}
	})
	if got := strings.TrimSpace(c.Output.String()); got != fmt.Sprint(want) {
		t.Fatalf("sum printed %q, want %d", got, want)
	}
}

// mmxCorrectionKernel is the paper's MPEG correction inner loop in MSS
// assembly: paddsw over reference and correction streams, 4 halfwords per
// iteration — the conventional-system version of the mpeg study.
const mmxCorrectionKernel = `
main:
	li r5, 0x00200000    # reference
	li r6, 0x00280000    # correction
	li r7, 0x00300000    # output
	li r4, %d            # halfwords (multiple of 4)
	srli r4, r4, 2
loop:
	beq r4, r0, done
	movq.l m0, 0(r5)
	movq.l m1, 0(r6)
	paddsw m2, m0, m1
	movq.s m2, 0(r7)
	addi r5, r5, 8
	addi r6, r6, 8
	addi r7, r7, 8
	addi r4, r4, -1
	b loop
done:
	halt
`

func TestMMXCorrectionKernelMatchesReference(t *testing.T) {
	frame := workload.NewMPEGFrame(77, 64) // 4096 halfwords
	n := len(frame.Reference)
	c := runProgram(t, fmt.Sprintf(mmxCorrectionKernel, n), func(s *mem.Store) {
		for i := 0; i < n; i++ {
			s.WriteU16(0x00200000+uint64(i)*2, uint16(frame.Reference[i]))
			s.WriteU16(0x00280000+uint64(i)*2, uint16(frame.Correction[i]))
		}
	})
	want := frame.ApplyCorrectionReference()
	for i := 0; i < n; i++ {
		got := int16(c.store.ReadU16(0x00300000 + uint64(i)*2))
		if got != want[i] {
			t.Fatalf("halfword %d = %d, want %d", i, got, want[i])
		}
	}
	if c.Stats.MMXOps == 0 {
		t.Fatal("kernel executed no MMX operations")
	}
}

// fibKernel computes fib(r4) recursively — stresses call/return and the
// stack.
const fibKernel = `
main:
	li r4, 14
	jal fib
	move r4, r2
	li r2, 1
	syscall
	halt
fib:
	slti r8, r4, 2
	beq r8, r0, recurse
	move r2, r4
	jr ra
recurse:
	addi sp, sp, -12
	sw ra, 0(sp)
	sw r4, 4(sp)
	addi r4, r4, -1
	jal fib
	sw r2, 8(sp)
	lw r4, 4(sp)
	addi r4, r4, -2
	jal fib
	lw r8, 8(sp)
	add r2, r2, r8
	lw ra, 0(sp)
	addi sp, sp, 12
	jr ra
`

func TestFibKernel(t *testing.T) {
	c := runProgram(t, fibKernel, nil)
	if got := strings.TrimSpace(c.Output.String()); got != "377" {
		t.Fatalf("fib(14) printed %q, want 377", got)
	}
}

// strrevKernel reverses a NUL-terminated string in place.
const strrevKernel = `
	.data
str: .asciiz "active pages"
	.text
main:
	la r5, str
	move r6, r5
findend:
	lbu r8, 0(r6)
	beq r8, r0, foundend
	addi r6, r6, 1
	b findend
foundend:
	addi r6, r6, -1
swap:
	bge r5, r6, done
	lbu r8, 0(r5)
	lbu r9, 0(r6)
	sb r9, 0(r5)
	sb r8, 0(r6)
	addi r5, r5, 1
	addi r6, r6, -1
	b swap
done:
	halt
`

func TestStrrevKernel(t *testing.T) {
	img, err := asm.Assemble(strrevKernel)
	if err != nil {
		t.Fatal(err)
	}
	c, store, _ := newCore()
	c.Load(img)
	if _, err := c.Run(1_000_000); err != nil {
		t.Fatal(err)
	}
	addr, ok := img.Symbols["str"]
	if !ok {
		t.Fatal("str symbol missing")
	}
	got := make([]byte, 12)
	store.Read(addr, got)
	if string(got) != "segap evitca" {
		t.Fatalf("reversed = %q", got)
	}
}

// The MMX kernel's simulated time should beat a byte-at-a-time version of
// the same correction — the width advantage MMX exists for.
func TestMMXWidthAdvantage(t *testing.T) {
	const n = 4096
	frame := workload.NewMPEGFrame(78, n/64)
	setup := func(s *mem.Store) {
		for i := 0; i < n; i++ {
			s.WriteU16(0x00200000+uint64(i)*2, uint16(frame.Reference[i]))
			s.WriteU16(0x00280000+uint64(i)*2, uint16(frame.Correction[i]))
		}
	}
	mmx := runProgram(t, fmt.Sprintf(mmxCorrectionKernel, n), setup)

	// Scalar version: lh/lh/add/clamp.../sh per halfword. Saturation via
	// branches.
	scalar := fmt.Sprintf(`
main:
	li r5, 0x00200000
	li r6, 0x00280000
	li r7, 0x00300000
	li r4, %d
	li r10, 32767
	li r11, -32768
loop:
	beq r4, r0, done
	lh r8, 0(r5)
	lh r9, 0(r6)
	add r8, r8, r9
	blt r8, r10, nothigh
	move r8, r10
nothigh:
	bge r8, r11, notlow
	move r8, r11
notlow:
	sh r8, 0(r7)
	addi r5, r5, 2
	addi r6, r6, 2
	addi r7, r7, 2
	addi r4, r4, -1
	b loop
done:
	halt
`, n)
	sc := runProgram(t, scalar, setup)
	if mmx.Now() >= sc.Now() {
		t.Fatalf("MMX kernel (%v) not faster than scalar (%v)", mmx.Now(), sc.Now())
	}
	// Both must compute the same answer.
	want := frame.ApplyCorrectionReference()
	for i := 0; i < n; i++ {
		if got := int16(sc.store.ReadU16(0x00300000 + uint64(i)*2)); got != want[i] {
			t.Fatalf("scalar halfword %d = %d, want %d", i, got, want[i])
		}
	}
}
