package fault

import (
	"math/rand"
	"slices"
	"testing"

	"repro/internal/benchprog"
	"repro/internal/interp"
	"repro/internal/ir"
	"repro/internal/obs"
)

// fullOutcomes classifies every site with a full run from main's entry:
// the trial loop as it was before checkpoints, kept as the reference.
func fullOutcomes(m *ir.Module, bind interp.Binding, cfg interp.Config, g *Golden, sites []interp.Fault) []Outcome {
	r := interp.NewRunner(m, faultyConfig(cfg, g))
	out := make([]Outcome, len(sites))
	for i := range sites {
		out[i] = Classify(g, r.Run(bind, &sites[i], nil))
	}
	return out
}

// ckptCampaignSites draws random sites under every registered model and
// adds the edge cases: the first and last occurrence of every
// value-returning call (whose occurrences snapshots count at the return,
// not the call) and sign-bit flips of integer adds, which make hangs and
// out-of-bounds crashes.
func ckptCampaignSites(m *ir.Module, g *Golden, perModel int) []interp.Fault {
	s := NewSampler(m, g, false)
	rng := rand.New(rand.NewSource(21))
	var sites []interp.Fault
	for _, model := range Models() {
		for i := 0; i < perModel; i++ {
			if f, ok := s.RandomSiteModel(model, rng); ok {
				sites = append(sites, f)
			}
		}
	}
	for _, id := range m.InjectableIDs(false) {
		n := g.Profile.InstrCount[id]
		switch in := m.Instrs[id]; {
		case n == 0:
		case in.Op == ir.OpCall:
			sites = append(sites, interp.Fault{InstrID: id, Bit: 1},
				interp.Fault{InstrID: id, DynIndex: n - 1, Bit: 62})
		case in.Op == ir.OpAdd:
			sites = append(sites, interp.Fault{InstrID: id, DynIndex: n / 3, Bit: 63})
		}
	}
	return sites
}

// TestCheckpointDifferential pins campaigns whose trials resume from
// golden-prefix checkpoints to full runs: identical outcomes on every
// single-threaded program, under the compiled engine (the one that
// checkpoints) and every registered fault model, with one worker and
// with several sharing the checkpoints (the -race run checks that
// sharing). fft-mt and the legacy engine must take the full-run fallback
// and build nothing.
func TestCheckpointDifferential(t *testing.T) {
	benches, perModel := benchprog.Eleven(), 8
	if testing.Short() {
		benches, perModel = benches[:3], 3
	}
	for _, b := range benches {
		b := b
		t.Run(b.Name+"/compiled", func(t *testing.T) {
			t.Parallel()
			m := b.MustModule()
			bind := b.Bind(b.Reference)
			cfg := b.ExecConfig()
			cfg.Engine = interp.EngineCompiled
			g, err := RunGolden(m, bind, cfg)
			if err != nil {
				t.Fatal(err)
			}
			sites := ckptCampaignSites(m, g, perModel)
			want := fullOutcomes(m, bind, cfg, g, sites)
			o := obs.New("test")
			for _, workers := range []int{1, 3} {
				c := Campaign{Mod: m, Bind: bind, Cfg: cfg, Golden: g, Workers: workers,
					Triage: TriageOff, Obs: o}
				if got := c.RunSites(sites); !slices.Equal(got, want) {
					for i := range got {
						if got[i] != want[i] {
							t.Fatalf("workers=%d site %+v: checkpointed %v, full run %v", workers, sites[i], got[i], want[i])
						}
					}
				}
			}
			cs := o.Reg.Snapshot().Counters
			if cs["fault.ckpt.builds"] != 1 || cs["fault.ckpt.restores"] == 0 {
				t.Errorf("builds=%d restores=%d: trials did not resume from one shared set",
					cs["fault.ckpt.builds"], cs["fault.ckpt.restores"])
			}
		})
	}

	t.Run("fallbacks", func(t *testing.T) {
		mt, ok := benchprog.ByName("fft-mt")
		if !ok {
			t.Fatal("fft-mt not registered")
		}
		legacy := benchprog.Eleven()[0].ExecConfig()
		legacy.Engine = interp.EngineLegacy
		cases := []struct {
			name string
			b    *benchprog.Benchmark
			cfg  interp.Config
		}{
			{"fft-mt", mt, mt.ExecConfig()},
			{"legacy", benchprog.Eleven()[0], legacy},
		}
		for _, tc := range cases {
			m := tc.b.MustModule()
			bind := tc.b.Bind(tc.b.Reference)
			g, err := RunGolden(m, bind, tc.cfg)
			if err != nil {
				t.Fatal(err)
			}
			sites := ckptCampaignSites(m, g, 2)
			o := obs.New("test")
			c := Campaign{Mod: m, Bind: bind, Cfg: tc.cfg, Golden: g, Workers: 1, Triage: TriageOff, Obs: o}
			if got, want := c.RunSites(sites), fullOutcomes(m, bind, tc.cfg, g, sites); !slices.Equal(got, want) {
				t.Errorf("%s: outcomes differ from full runs", tc.name)
			}
			if cs := o.Reg.Snapshot().Counters; cs["fault.ckpt.builds"] != 0 || cs["fault.ckpt.restores"] != 0 {
				t.Errorf("%s: built %d sets, restored %d trials; want the full-run fallback",
					tc.name, cs["fault.ckpt.builds"], cs["fault.ckpt.restores"])
			}
		}
	})
}

// TestCheckpointBudget pins the memory bound across golden runs: sets
// past the budget are evicted least recently used first, and a campaign
// on an evicted golden rebuilds its set with unchanged outcomes.
func TestCheckpointBudget(t *testing.T) {
	b := benchprog.Eleven()[0]
	m := b.MustModule()
	bind := b.Bind(b.Reference)
	cfg := b.ExecConfig()
	o := obs.New("test")
	campaign := func(g *Golden, sites []interp.Fault) []Outcome {
		c := Campaign{Mod: m, Bind: bind, Cfg: cfg, Golden: g, Workers: 1, Triage: TriageOff, Obs: o}
		return c.RunSites(sites)
	}
	golden := func() *Golden {
		g, err := RunGolden(m, bind, cfg)
		if err != nil {
			t.Fatal(err)
		}
		return g
	}
	first := golden()
	sites := ckptCampaignSites(m, first, 1)
	campaign(first, sites)
	var live []*Golden // keeps the later goldens reachable
	for first.ckpt.Load().set.Load() != nil {
		if len(live) == 1000 {
			t.Fatal("the first set was never evicted")
		}
		g := golden()
		campaign(g, sites)
		live = append(live, g)
	}
	ckptLRU.Lock()
	bytes := ckptLRU.bytes
	ckptLRU.Unlock()
	if bytes > ckptBudget {
		t.Errorf("live checkpoint bytes %d exceed the budget %d", bytes, ckptBudget)
	}
	before := o.Reg.Snapshot().Counters["fault.ckpt.builds"]
	if got, want := campaign(first, sites), fullOutcomes(m, bind, cfg, first, sites); !slices.Equal(got, want) {
		t.Error("outcomes after eviction differ from full runs")
	}
	if n := o.Reg.Snapshot().Counters["fault.ckpt.builds"] - before; n != 1 {
		t.Errorf("evicted golden rebuilt %d sets, want 1", n)
	}
	if first.ckpt.Load().set.Load() == nil {
		t.Error("the rebuilt set is not live")
	}
}
