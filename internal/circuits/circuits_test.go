package circuits

import (
	"math"
	"testing"

	"activepages/internal/logic"
)

// Table 3 reproduction: every synthesized circuit must land near the
// paper's reported LE count and code size (the estimator is calibrated to
// the published designs), and all must fit the 256-LE page budget.
func TestTable3LECounts(t *testing.T) {
	designs := All()
	paper := PaperTable3()
	if len(designs) != len(paper) {
		t.Fatalf("have %d designs, paper has %d rows", len(designs), len(paper))
	}
	for i, d := range designs {
		r := logic.Synthesize(d)
		want := paper[i]
		if r.Name != want.Name {
			t.Errorf("row %d: name %q, want %q", i, r.Name, want.Name)
		}
		if relErr(float64(r.LEs), float64(want.LEs)) > 0.10 {
			t.Errorf("%s: %d LEs, paper reports %d (>10%% off)", r.Name, r.LEs, want.LEs)
		}
		if !r.FitsBudget() {
			t.Errorf("%s needs %d LEs, over the %d-LE page budget", r.Name, r.LEs, logic.PageLEBudget)
		}
	}
}

func TestTable3CodeSizes(t *testing.T) {
	paper := PaperTable3()
	for i, d := range All() {
		r := logic.Synthesize(d)
		if relErr(r.CodeKB(), paper[i].CodeKB) > 0.15 {
			t.Errorf("%s: code %.1f KB, paper reports %.1f KB", r.Name, r.CodeKB(), paper[i].CodeKB)
		}
	}
}

func TestTable3Speeds(t *testing.T) {
	paper := PaperTable3()
	for i, d := range All() {
		r := logic.Synthesize(d)
		if relErr(r.SpeedNs, paper[i].SpeedNs) > 0.30 {
			t.Errorf("%s: speed %.1f ns, paper reports %.1f ns (>30%% off)",
				r.Name, r.SpeedNs, paper[i].SpeedNs)
		}
	}
}

// The qualitative ordering the paper's area numbers imply: the array
// primitives are the smallest circuits and Matrix is the largest.
func TestAreaOrdering(t *testing.T) {
	les := map[string]int{}
	for _, d := range All() {
		les[d.Name] = logic.Synthesize(d).LEs
	}
	if !(les["Array-delete"] < les["Array-find"]) {
		t.Error("array-delete should be smaller than array-find")
	}
	if !(les["Array-insert"] < les["Database"]) {
		t.Error("array-insert should be smaller than database")
	}
	for name, n := range les {
		if name != "Matrix" && n >= les["Matrix"] {
			t.Errorf("%s (%d LEs) should be smaller than Matrix (%d LEs)", name, n, les["Matrix"])
		}
	}
}

func TestAllDesignsDistinctNames(t *testing.T) {
	seen := map[string]bool{}
	for _, d := range All() {
		if seen[d.Name] {
			t.Errorf("duplicate design name %q", d.Name)
		}
		seen[d.Name] = true
	}
}

func TestEveryDesignHasMemPortAndControl(t *testing.T) {
	for _, d := range All() {
		var hasPort, hasFSM bool
		for _, p := range append(append([]logic.Primitive{}, d.Stages...), d.Rest...) {
			if p.Kind == logic.MemPort {
				hasPort = true
			}
			if p.Kind == logic.FSM {
				hasFSM = true
			}
		}
		if !hasPort {
			t.Errorf("%s has no subarray memory port", d.Name)
		}
		if !hasFSM {
			t.Errorf("%s has no control FSM", d.Name)
		}
	}
}

func relErr(got, want float64) float64 {
	if want == 0 {
		return math.Abs(got)
	}
	return math.Abs(got-want) / math.Abs(want)
}
