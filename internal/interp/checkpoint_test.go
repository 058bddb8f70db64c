package interp_test

import (
	"math/rand"
	"slices"
	"sync"
	"testing"

	"repro/internal/benchprog"
	"repro/internal/fault"
	"repro/internal/interp"
	"repro/internal/ir"
	"repro/internal/sid"
)

// ckptTally counts what the checkpoint differential exercised, so the
// test can insist that every trial kind it promises was really run.
type ckptTally struct {
	mu        sync.Mutex
	status    [4]int
	restored  int
	converged int
	dupPhis   int // resumed trials at a duplicated phi
}

func (c *ckptTally) add(m *ir.Module, f interp.Fault, res interp.Result, rs interp.Resume) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.status[res.Status]++
	if in := m.Instrs[f.InstrID]; rs.Restored && in.Op == ir.OpPhi && m.Instrs[in.ID+1].Dup {
		c.dupPhis++ // duplication puts the dup phi right after its phi
	}
	if rs.Restored {
		c.restored++
	}
	if rs.Converged {
		c.converged++
	}
}

// ckptSites gathers the trial sites of one program: random sites under
// every registered fault model, the in-flight call occurrences at every
// snapshot, the first and last occurrence of injectable instructions,
// and sign-bit flips of integer adds (loop counters turned negative make
// hangs and out-of-bounds crashes).
func ckptSites(t *testing.T, m *ir.Module, g *fault.Golden, ck *interp.Checkpoints, nRandom, stride int) []interp.Fault {
	t.Helper()
	s := fault.NewSampler(m, g, false)
	rng := rand.New(rand.NewSource(11))
	var sites []interp.Fault
	for _, mn := range fault.ModelNames() {
		model, _ := fault.ModelByName(mn)
		for i := 0; i < nRandom; i++ {
			f, ok := s.RandomSiteModel(model, rng)
			if !ok {
				t.Fatal("no injectable sites")
			}
			sites = append(sites, f)
		}
	}
	sites = append(sites, interp.CheckpointCallSites(ck)...)
	for i, id := range m.InjectableIDs(false) {
		n := g.Profile.InstrCount[id]
		if n == 0 {
			continue
		}
		if m.Instrs[id].Op == ir.OpAdd {
			sites = append(sites, interp.Fault{InstrID: id, DynIndex: n / 2, Bit: 63})
		}
		if i%stride == 0 {
			sites = append(sites, interp.Fault{InstrID: id, DynIndex: 0, Bit: 3},
				interp.Fault{InstrID: id, DynIndex: n - 1, Bit: 5})
		}
	}
	return sites
}

// checkCheckpointed runs every site in full and resumed from ck, and
// fails on any difference in the Result.
func checkCheckpointed(t *testing.T, m *ir.Module, bind interp.Binding, cfg interp.Config,
	ck *interp.Checkpoints, sites []interp.Fault, tally *ckptTally) {
	t.Helper()
	full := interp.NewRunner(m, cfg)
	resumed := interp.NewRunner(m, cfg)
	for i := range sites {
		f := sites[i]
		want := full.Run(bind, &f, nil)
		got, rs := resumed.RunScratchFrom(ck, bind, &f)
		if got.Status != want.Status || got.Trap != want.Trap || got.DynInstrs != want.DynInstrs ||
			got.Cycles != want.Cycles || got.OutputHash != want.OutputHash || !slices.Equal(got.Output, want.Output) {
			t.Fatalf("site %+v (resume %+v): checkpointed %v/%q dyn=%d cyc=%d out=%v, full %v/%q dyn=%d cyc=%d out=%v",
				f, rs, got.Status, got.Trap, got.DynInstrs, got.Cycles, got.Output,
				want.Status, want.Trap, want.DynInstrs, want.Cycles, want.Output)
		}
		tally.add(m, f, got, rs)
	}
}

// faultyCfg is the campaign hang budget for trials against g.
func faultyCfg(cfg interp.Config, g *fault.Golden) interp.Config {
	cfg.MaxDynInstrs = g.DynInstrs*fault.HangFactor + 10_000
	return cfg
}

// TestCheckpointDifferential pins trials resumed from golden-prefix
// checkpoints, and trials ended early on re-convergence, to full runs:
// identical Results on every single-threaded program under the compiled
// engine (the one that checkpoints), on unprotected and fully
// duplicated modules, including faults at duplicated phis.
func TestCheckpointDifferential(t *testing.T) {
	nRandom, stride := 6, 1
	if testing.Short() {
		nRandom, stride = 2, 6
	}
	var tally ckptTally
	t.Run("programs", func(t *testing.T) {
		for _, b := range benchprog.Eleven() {
			for _, protected := range []bool{false, true} {
				b, protected := b, protected
				name := b.Name + "/compiled"
				if protected {
					name += "/dup"
				}
				t.Run(name, func(t *testing.T) {
					t.Parallel()
					m := b.MustModule()
					if protected {
						m = sid.FullDuplication(m)
						if interp.Lower(m).LegacyOnly() {
							t.Fatal("fully duplicated module decodes legacy-only")
						}
					}
					bind := b.Bind(b.Reference)
					cfg := b.ExecConfig()
					cfg.Engine = interp.EngineCompiled
					g, err := fault.RunGolden(m, bind, cfg)
					if err != nil {
						t.Fatal(err)
					}
					fcfg := faultyCfg(cfg, g)
					ck := interp.NewRunner(m, fcfg).Checkpoint(bind, g.DynInstrs)
					if ck == nil {
						t.Fatalf("no checkpoints for a %d-instruction golden run", g.DynInstrs)
					}
					if gr := ck.Golden(); gr.DynInstrs != g.DynInstrs || gr.Cycles != g.Cycles ||
						!slices.Equal(gr.Output, g.Output) {
						t.Fatalf("snapshot run %+v differs from the golden run", gr)
					}
					checkCheckpointed(t, m, bind, fcfg, ck, ckptSites(t, m, g, ck, nRandom, stride), &tally)
				})
			}
		}
	})
	t.Logf("statuses ok/crash/hang/detected = %v, restored %d, converged %d, duplicated phis %d",
		tally.status, tally.restored, tally.converged, tally.dupPhis)
	for s, n := range tally.status {
		if n == 0 {
			t.Errorf("no %v trial exercised", interp.Status(s))
		}
	}
	if tally.restored == 0 || tally.converged == 0 {
		t.Errorf("restored %d, converged %d: checkpoint paths not exercised", tally.restored, tally.converged)
	}
	if tally.dupPhis == 0 {
		t.Error("no trial at a duplicated phi resumed from a checkpoint")
	}
}

// valuelessReturnModule builds a loop calling f 2000 times for a result,
// where f returns its argument when it is even and nothing when it is
// odd. The IR verifier accepts this; a return without a value does not
// count as an occurrence of the call.
func valuelessReturnModule() *ir.Module {
	m := ir.NewModule("valueless")
	mainF := m.AddFunction("main", nil, ir.Void)
	f := m.AddFunction("f", []ir.Type{ir.I64}, ir.I64)

	b := ir.NewBuilder(m, mainF)
	head, body, exit := b.NewBlock("head"), b.NewBlock("body"), b.NewBlock("exit")
	p := b.Alloca(ir.ConstI(1))
	b.Store(ir.ConstI(0), p)
	b.Br(head)
	b.SetBlock(head)
	i := b.Load(ir.I64, p)
	b.CondBr(b.ICmp(ir.PredLT, i, ir.ConstI(2000)), body, exit)
	b.SetBlock(body)
	b.CallB(ir.BuiltinEmitI, b.Call(f.Index, ir.I64, i))
	b.Store(b.Bin(ir.OpAdd, i, ir.ConstI(1)), p)
	b.Br(head)
	b.SetBlock(exit)
	b.RetVoid()

	fb := ir.NewBuilder(m, f)
	even, odd := fb.NewBlock("even"), fb.NewBlock("odd")
	x := ir.Reg(0, ir.I64)
	fb.CondBr(fb.ICmp(ir.PredEQ, fb.Bin(ir.OpAnd, x, ir.ConstI(1)), ir.ConstI(0)), even, odd)
	fb.SetBlock(even)
	fb.Ret(x)
	fb.SetBlock(odd)
	fb.RetVoid()
	m.Finalize()
	return m
}

// TestCheckpointFallbacks pins the cases that keep the full-run path:
// the legacy engine, thread-spawning modules, modules whose value calls
// can return without a value and goldens too short to space a snapshot
// get no checkpoints, and a nil set or one built under another engine
// runs trials in full.
func TestCheckpointFallbacks(t *testing.T) {
	b := benchprog.Eleven()[0]
	m := b.MustModule()
	bind := b.Bind(b.Reference)
	cfg := b.ExecConfig()
	g, err := fault.RunGolden(m, bind, cfg)
	if err != nil {
		t.Fatal(err)
	}
	cfg = faultyCfg(cfg, g)

	legacy := cfg
	legacy.Engine = interp.EngineLegacy
	if interp.NewRunner(m, legacy).Checkpoint(bind, g.DynInstrs) != nil {
		t.Error("legacy engine built checkpoints")
	}
	if interp.NewRunner(m, cfg).Checkpoint(bind, 1000) != nil {
		t.Error("a 1000-instruction golden run got checkpoints")
	}
	if interp.NewRunner(m, cfg).Checkpoint(bind, g.DynInstrs+1) != nil {
		t.Error("checkpoints built although the run length differs from the golden run's")
	}

	mt, ok := benchprog.ByName("fft-mt")
	if !ok {
		t.Fatal("fft-mt not registered")
	}
	mtm := mt.MustModule()
	mtBind := mt.Bind(mt.Reference)
	mtg, err := fault.RunGolden(mtm, mtBind, mt.ExecConfig())
	if err != nil {
		t.Fatal(err)
	}
	if interp.NewRunner(mtm, faultyCfg(mt.ExecConfig(), mtg)).Checkpoint(mtBind, mtg.DynInstrs) != nil {
		t.Error("fft-mt built checkpoints")
	}

	if vm := valuelessReturnModule(); interp.NewRunner(vm, interp.Config{}).Checkpoint(interp.Binding{},
		interp.NewRunner(vm, interp.Config{}).Run(interp.Binding{}, nil, nil).DynInstrs) != nil {
		t.Error("a module whose value call can return without a value built checkpoints")
	}

	ck := interp.NewRunner(m, cfg).Checkpoint(bind, g.DynInstrs)
	if ck == nil {
		t.Fatal("no checkpoints")
	}
	var tally ckptTally
	sites := ckptSites(t, m, g, ck, 2, 8)
	checkCheckpointed(t, m, bind, legacy, ck, sites, &tally)
	checkCheckpointed(t, m, bind, cfg, nil, sites, &tally)
	if tally.restored != 0 || tally.converged != 0 {
		t.Errorf("mismatched or nil checkpoints were used: restored %d, converged %d", tally.restored, tally.converged)
	}
}
