package logic

import (
	"testing"
	"testing/quick"

	"activepages/internal/sim"
)

func TestPrimitiveLECosts(t *testing.T) {
	cases := []struct {
		p    Primitive
		want int
	}{
		{Primitive{Kind: Register, Width: 32}, 32},
		{Primitive{Kind: Adder, Width: 16}, 16},
		{Primitive{Kind: Counter, Width: 20}, 21},
		{Primitive{Kind: CompareMag, Width: 32}, 16},
		{Primitive{Kind: Mux, Width: 16, Ways: 2}, 16},
		{Primitive{Kind: Mux, Width: 8, Ways: 4}, 24},
		{Primitive{Kind: Mux, Width: 8, Ways: 1}, 0},
		{Primitive{Kind: RawLUTs, Ways: 7}, 7},
		{Primitive{Kind: MemPort}, 35},
		{Primitive{Kind: MinMax, Width: 16}, 40},
	}
	for _, c := range cases {
		if got := c.p.les(); got != c.want {
			t.Errorf("%v width=%d ways=%d: les = %d, want %d", c.p.Kind, c.p.Width, c.p.Ways, got, c.want)
		}
	}
}

func TestCompareEqReductionTree(t *testing.T) {
	// 32-bit equality: 16 XNOR-pair LUTs, then 16 -> 4 -> 1 reduction.
	p := Primitive{Kind: CompareEq, Width: 32}
	if got := p.les(); got != 21 {
		t.Fatalf("32-bit compare-eq = %d LEs, want 21", got)
	}
}

func TestFSMCost(t *testing.T) {
	p := Primitive{Kind: FSM, Ways: 8}
	// 3 state bits + (3*8+1)/2 = 12 next-state/output LEs.
	if got := p.les(); got != 15 {
		t.Fatalf("8-state FSM = %d LEs, want 15", got)
	}
	// Degenerate FSMs are clamped to 2 states.
	if (Primitive{Kind: FSM, Ways: 0}).les() != (Primitive{Kind: FSM, Ways: 2}).les() {
		t.Error("degenerate FSM not clamped")
	}
}

func TestDelaysIncreaseWithWidth(t *testing.T) {
	narrow := Primitive{Kind: Adder, Width: 8}.depthNs()
	wide := Primitive{Kind: Adder, Width: 32}.depthNs()
	if wide <= narrow {
		t.Fatalf("32-bit adder (%v) not slower than 8-bit (%v)", wide, narrow)
	}
}

func TestRegistersHaveNoDelay(t *testing.T) {
	if d := (Primitive{Kind: Register, Width: 64}).depthNs(); d != 0 {
		t.Fatalf("register delay = %v, want 0", d)
	}
}

func TestSynthesizeSums(t *testing.T) {
	d := NewDesign("test")
	d.OnPath(Primitive{Kind: Adder, Width: 16})
	d.Off(Primitive{Kind: Register, Width: 16})
	r := Synthesize(d)
	if r.LEs != 32 {
		t.Fatalf("LEs = %d, want 32", r.LEs)
	}
	if r.SpeedNs <= clockOverhead {
		t.Fatalf("speed %v should exceed clock overhead", r.SpeedNs)
	}
	if r.CodeBytes != bitstreamOverheadBytes+int(32*BytesPerLE) {
		t.Fatalf("code bytes = %d", r.CodeBytes)
	}
}

func TestSynthesizeAddsRoutingBetweenStages(t *testing.T) {
	one := NewDesign("one").OnPath(Primitive{Kind: Adder, Width: 8})
	two := NewDesign("two").
		OnPath(Primitive{Kind: Adder, Width: 8}).
		OnPath(Primitive{Kind: Adder, Width: 8})
	r1, r2 := Synthesize(one), Synthesize(two)
	if r2.SpeedNs <= r1.SpeedNs {
		t.Fatalf("two-stage path (%v) not slower than one-stage (%v)", r2.SpeedNs, r1.SpeedNs)
	}
}

func TestBudget(t *testing.T) {
	small := Report{Name: "ok", LEs: PageLEBudget}
	if !small.FitsBudget() {
		t.Error("design at exactly the budget should fit")
	}
	big := Report{Name: "big", LEs: PageLEBudget + 1}
	if big.FitsBudget() {
		t.Error("over-budget design should be rejected")
	}
}

func TestCodeKB(t *testing.T) {
	r := Report{CodeBytes: 2765}
	if got := r.CodeKB(); got != 2.7 {
		t.Fatalf("CodeKB = %v, want 2.7", got)
	}
}

func TestReconfigurationTime(t *testing.T) {
	clk := sim.NewClock(100_000_000) // 100 MHz
	r := Report{CodeBytes: 3000}
	if got := ReconfigurationTime(r, clk); got != 30*sim.Microsecond {
		t.Fatalf("reconfig time = %v, want 30us", got)
	}
}

func TestKindString(t *testing.T) {
	if Register.String() != "register" || MemPort.String() != "mem-port" {
		t.Error("kind names wrong")
	}
	if Kind(99).String() != "kind(99)" {
		t.Error("unknown kind formatting wrong")
	}
}

// Property: area is monotonic — adding any primitive never shrinks a design.
func TestAreaMonotonicProperty(t *testing.T) {
	f := func(kind uint8, width uint8, ways uint8) bool {
		p := Primitive{Kind: Kind(kind % 12), Width: int(width%64) + 1, Ways: int(ways%16) + 1}
		base := NewDesign("base").OnPath(Primitive{Kind: Adder, Width: 8})
		grown := NewDesign("grown").OnPath(Primitive{Kind: Adder, Width: 8}).Off(p)
		return Synthesize(grown).LEs >= Synthesize(base).LEs
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// Property: bitstream size is affine in LEs.
func TestBitstreamAffineProperty(t *testing.T) {
	f := func(w uint8) bool {
		width := int(w%64) + 1
		d := NewDesign("d").OnPath(Primitive{Kind: Register, Width: width})
		r := Synthesize(d)
		return r.CodeBytes == bitstreamOverheadBytes+int(float64(width)*BytesPerLE)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}
