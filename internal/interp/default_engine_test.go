package interp_test

import (
	"testing"

	"repro/internal/benchprog"
	"repro/internal/interp"
	"repro/internal/obs"
)

// TestEngineSelection pins the -engine vocabulary and where each value
// runs: every accepted spelling round-trips through String, "image" is
// no longer an engine, and a zero Config (auto) runs a lowerable program
// on the compiled engine, as counted by interp.runs.compiled.
func TestEngineSelection(t *testing.T) {
	defer interp.SetObs(nil)
	b, ok := benchprog.ByName("knn")
	if !ok {
		t.Fatal("knn not registered")
	}
	m := b.MustModule()
	if interp.Lower(m).LegacyOnly() {
		t.Fatal("knn decodes legacy-only; the engine choice would not matter")
	}
	cases := []struct {
		flag    string
		valid   bool
		counter string // the per-engine counter one run increments
	}{
		{"auto", true, "interp.runs.compiled"},
		{"compiled", true, "interp.runs.compiled"},
		{"legacy", true, "interp.runs.legacy"},
		{"image", false, ""},
	}
	for _, tc := range cases {
		t.Run(tc.flag, func(t *testing.T) {
			eng, err := interp.ParseEngine(tc.flag)
			if !tc.valid {
				if err == nil {
					t.Fatalf("ParseEngine(%q) = %v, want an error", tc.flag, eng)
				}
				return
			}
			if err != nil {
				t.Fatalf("ParseEngine(%q): %v", tc.flag, err)
			}
			if eng.String() != tc.flag {
				t.Fatalf("ParseEngine(%q).String() = %q", tc.flag, eng.String())
			}
			reg := obs.NewRegistry()
			interp.SetObs(reg)
			cfg := interp.Config{Engine: eng} // "auto": the zero Config
			if res := interp.NewRunner(m, cfg).Run(b.Bind(b.Reference), nil, nil); res.Status != interp.StatusOK {
				t.Fatalf("run: %v (%s)", res.Status, res.Trap)
			}
			for _, name := range []string{"interp.runs.compiled", "interp.runs.legacy"} {
				want := int64(0)
				if name == tc.counter {
					want = 1
				}
				if got := reg.Counter(name).Value(); got != want {
					t.Errorf("%s = %d after one %s run, want %d", name, got, tc.flag, want)
				}
			}
		})
	}
}
