package sid

import (
	"maps"
	"slices"
	"testing"

	"repro/internal/benchprog"
	"repro/internal/interp"
	"repro/internal/ir"
	"repro/internal/minicc"
	"repro/internal/passes"
)

// swapSrc rotates two values through a loop (t = a; a = b; b = t).
// After mem2reg the loop header holds the phi group
// `%a = phi 1, %b` / `%b = phi 2, %a`, whose meaning depends on the
// phis reading their incoming values in parallel. The phi of c, which
// leads the group, has constant incoming values only, so its known bits
// make the inv detector applicable to it.
const swapSrc = `
func main(n int) {
	var c int = 0;
	var a int = 1;
	var b int = 2;
	for (var i int = 0; i < n; i = i + 1) {
		var t int = a;
		a = b;
		b = t;
		c = 4;
	}
	emiti(a);
	emiti(b);
	emiti(c);
}`

// variant is one protected form of a module under test.
type variant struct {
	name string
	mod  *ir.Module
}

func buildSwap(t testing.TB) (*ir.Module, interp.Binding) {
	t.Helper()
	m, err := minicc.Compile("swap.mc", swapSrc)
	if err != nil {
		t.Fatal(err)
	}
	if err := passes.Optimize(m); err != nil {
		t.Fatal(err)
	}
	return m, interp.Binding{Args: []uint64{3}}
}

// TestProtectedPhiSwap pins protection of a phi group to the
// unprotected program: protecting the swap loop's phis with Duplicate,
// FullDuplication or LowerSelection under any detector that applies to a
// phi must leave the output and status unchanged on both engines, and
// the protected module must verify and decode for the compiled engine.
func TestProtectedPhiSwap(t *testing.T) {
	m, bind := buildSwap(t)
	var phis []int
	for _, in := range m.Instrs {
		if in.Op == ir.OpPhi && Duplicable(in) {
			phis = append(phis, in.ID)
		}
	}
	if len(phis) < 2 {
		t.Fatalf("swap loop lowered to %d phis, want a group of >= 2:\n%s", len(phis), m)
	}
	want := interp.NewRunner(m, interp.Config{Engine: interp.EngineLegacy}).Run(bind, nil, nil)
	if want.Status != interp.StatusOK || !slices.Equal(want.Output, []uint64{2, 1, 4}) {
		t.Fatalf("unprotected swap: %v %v, want OK [2 1 4]", want.Status, want.Output)
	}

	variants := []variant{
		{"duplicate", Duplicate(m, phis)},
		{"full-duplication", FullDuplication(m)},
	}
	fx := FactsFor(m)
	for _, d := range Detectors() {
		var sel Selection
		for _, id := range phis {
			if d.Applicable(fx, id) {
				sel.Chosen = append(sel.Chosen, id)
				sel.Detectors = append(sel.Detectors, d.Name())
			}
		}
		if len(sel.Chosen) > 0 {
			variants = append(variants, variant{"lower-" + d.Name(), LowerSelection(m, sel)})
		}
	}
	for _, name := range []string{"lower-dup", "lower-inv"} {
		if !slices.ContainsFunc(variants, func(v variant) bool { return v.name == name }) {
			t.Fatalf("%s: detector does not apply to the swap phis", name)
		}
	}

	for _, v := range variants {
		name, prot := v.name, v.mod
		if err := ir.Verify(prot); err != nil {
			t.Errorf("%s: %v", name, err)
		}
		if interp.Lower(prot).LegacyOnly() {
			t.Errorf("%s: protected module decodes legacy-only", name)
		}
		for _, eng := range []interp.Engine{interp.EngineLegacy, interp.EngineCompiled} {
			got := interp.NewRunner(prot, interp.Config{Engine: eng}).Run(bind, nil, nil)
			if got.Status != want.Status || !slices.Equal(got.Output, want.Output) {
				t.Errorf("%s/%v: %v %v (%s), want %v %v",
					name, eng, got.Status, got.Output, got.Trap, want.Status, want.Output)
			}
		}
	}
}

// Every protected form of every benchmark keeps its phi groups leading:
// a level-0.5 selection (which protects only some phis of a group),
// FullDuplication and an all-sites LowerSelection per detector verify
// and decode for the compiled engine.
func TestProtectedModulesVerifyAndCompile(t *testing.T) {
	for _, b := range benchprog.All() {
		m := b.MustModule()
		meas, err := HeuristicMeasure(m, b.Bind(b.Reference), b.ExecConfig())
		if err != nil {
			t.Fatalf("%s: %v", b.Name, err)
		}
		fx := FactsFor(m)
		variants := []variant{
			{"level-0.5", Duplicate(m, Select(m, meas, 0.5, MethodDP).Chosen)},
			{"full-duplication", FullDuplication(m)},
		}
		for _, d := range Detectors() {
			var sel Selection
			for _, in := range m.Instrs {
				if Duplicable(in) && d.Applicable(fx, in.ID) {
					sel.Chosen = append(sel.Chosen, in.ID)
					sel.Detectors = append(sel.Detectors, d.Name())
				}
			}
			variants = append(variants, variant{"lower-" + d.Name(), LowerSelection(m, sel)})
		}
		for _, v := range variants {
			name, prot := v.name, v.mod
			if err := ir.Verify(prot); err != nil {
				t.Errorf("%s/%s: %v", b.Name, name, err)
			}
			if interp.Lower(prot).LegacyOnly() {
				t.Errorf("%s/%s: protected module decodes legacy-only", b.Name, name)
			}
		}
	}
}

// ProtectedMap predicts Duplicate's layout without building the module:
// it must equal the translation read off the built module, for the
// empty, a level-0.5 and the all-duplicable selection.
func TestProtectedMapMatchesDuplicate(t *testing.T) {
	for _, b := range benchprog.All() {
		m := b.MustModule()
		meas, err := HeuristicMeasure(m, b.Bind(b.Reference), b.ExecConfig())
		if err != nil {
			t.Fatalf("%s: %v", b.Name, err)
		}
		var all []int
		for _, in := range m.Instrs {
			if Duplicable(in) {
				all = append(all, in.ID)
			}
		}
		for _, tc := range []struct {
			name   string
			chosen []int
		}{
			{"none", nil},
			{"level-0.5", Select(m, meas, 0.5, MethodDP).Chosen},
			{"all", all},
		} {
			want := InstrMap(m, Duplicate(m, tc.chosen))
			if got := ProtectedMap(m, tc.chosen); !maps.Equal(got, want) {
				t.Errorf("%s/%s: ProtectedMap differs from the built module's InstrMap", b.Name, tc.name)
			}
		}
	}
}
