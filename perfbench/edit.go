package main

import (
	"fmt"
	"io"
	"os"
	"path/filepath"
	"slices"
	"time"

	"repro/internal/core"
	"repro/internal/fault"
	"repro/internal/ir"
	"repro/internal/minpsid"
	"repro/internal/pipeline"
)

// The edit workload is the incremental path: sectional measurement and
// campaign tasks on a disk-backed pipeline, run on an empty store (cold),
// after a seeded semantics-preserving one-function edit on a copy of the
// warm store (edit), and unchanged on the warm store (warm). It is the
// only workload on the secmeasure path and on store reuse after an edit.

type editPlan struct {
	programs       []string
	maxTargets     int // how many editable programs to keep
	faultsPerInstr int
	trials         int
	warmReruns     int
}

func editPlanFor(cfg config) editPlan {
	if cfg.tiny {
		return editPlan{programs: singleThreaded(), maxTargets: 1, faultsPerInstr: 1, trials: 40, warmReruns: 2}
	}
	return editPlan{programs: singleThreaded(), maxTargets: len(singleThreaded()), faultsPerInstr: 3, trials: 300, warmReruns: 3}
}

// Fixed campaign seeds: the edit choice is the workload's generated input.
const editMeasureSeed, editCampaignSeed = 7, 5

// editSite is one candidate edit of one function, which preserves what
// the program computes: either the swap of two adjacent independent pure
// instructions of a block (the edit the incremental pipeline benchmark
// uses) or, with commute set, the swap of the operands of one
// commutative integer instruction.
type editSite struct {
	fn, blk, idx int
	commute      bool
}

// editsPerProgram is how many seeded edit choices set-up draws per
// program; rounds cycle through them.
const editsPerProgram = 8

type editTarget struct {
	p     *core.Program
	edits []editSite
}

func setupEdit(cfg config, plan editPlan, tr *tracer) ([]*editTarget, error) {
	var out []*editTarget
	for _, name := range plan.programs {
		if len(out) == plan.maxTargets {
			break
		}
		p, err := compileProgram(tr, name)
		if err != nil {
			return nil, err
		}
		var sites []editSite
		tr.do("ir.sections", func() {
			if len(ir.PartitionSections(p.Module).Sections) >= 3 {
				sites = editSites(p.Module)
			}
		})
		if len(sites) > 0 {
			rng := workloadRNG(cfg.seed, "edit/"+name)
			t := &editTarget{p: p}
			for i := 0; i < editsPerProgram; i++ {
				t.edits = append(t.edits, sites[rng.Intn(len(sites))])
			}
			out = append(out, t)
		}
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("edit: no program offers a multi-section edit site")
	}
	return out, nil
}

// editSites lists every edit site of the module.
func editSites(m *ir.Module) []editSite {
	pure := func(in *ir.Instr) bool {
		switch in.Op {
		case ir.OpAdd, ir.OpSub, ir.OpMul, ir.OpAnd, ir.OpOr, ir.OpXor,
			ir.OpShl, ir.OpShr, ir.OpICmp:
			return in.HasResult()
		}
		return false
	}
	commutative := func(in *ir.Instr) bool {
		switch in.Op {
		case ir.OpAdd, ir.OpMul, ir.OpAnd, ir.OpOr, ir.OpXor:
			return len(in.Args) == 2 && in.Args[0] != in.Args[1]
		}
		return false
	}
	uses := func(in *ir.Instr, reg int) bool {
		for _, a := range in.Args {
			if a.Kind == ir.OperReg && a.Reg == reg {
				return true
			}
		}
		return false
	}
	var sites []editSite
	for fi, f := range m.Funcs {
		for bi, b := range f.Blocks {
			for i, x := range b.Instrs {
				if commutative(x) {
					sites = append(sites, editSite{fi, bi, i, true})
				}
				if i+1 < len(b.Instrs) {
					y := b.Instrs[i+1]
					if pure(x) && pure(y) && x.Dst != y.Dst && !uses(y, x.Dst) && !uses(x, y.Dst) {
						sites = append(sites, editSite{fi, bi, i, false})
					}
				}
			}
		}
	}
	return sites
}

// edited returns a copy of the module with the edit applied.
func edited(m *ir.Module, s editSite) (*ir.Module, error) {
	m2 := m.Clone()
	b := m2.Funcs[s.fn].Blocks[s.blk]
	if s.commute {
		a := b.Instrs[s.idx].Args
		a[0], a[1] = a[1], a[0]
	} else {
		b.Instrs[s.idx], b.Instrs[s.idx+1] = b.Instrs[s.idx+1], b.Instrs[s.idx]
	}
	m2.Finalize()
	return m2, ir.Verify(m2)
}

// incrementalOut is what one incremental measure + campaign pair yields.
type incrementalOut struct {
	meas *pipeline.MeasureOut
	cov  *pipeline.CoverageOut
}

// phaseRun is one phase: every program's measure + campaign pair on one
// fresh pipeline over one store.
type phaseRun struct {
	outs  []incrementalOut
	secs  []float64 // per program
	stats pipeline.StoreStats
	// classified counts the trials the phase classified, pruned included.
	classified int64
}

// phase runs the measure + campaign pair of every module on one fresh
// pipeline over the store at dir, inside a span named name.
func phase(tr *tracer, name string, o *outcome, plan editPlan, dir string, progs []*core.Program, mods []*ir.Module) (*phaseRun, error) {
	sp := tr.start(name, 0)
	defer tr.end(sp)
	tr = tr.under(sp)
	pipe, err := pipeline.New(pipeline.Options{Workers: workers(), DiskDir: dir})
	if err != nil {
		return nil, err
	}
	fm := fault.NewMetrics()
	env := pipeline.Env{Cache: fault.NewCache(0), Metrics: fm}
	run := &phaseRun{}
	for i, p := range progs {
		m := mods[i]
		mt := &pipeline.MeasureTask{
			Target: minpsid.Target{Mod: m, Spec: p.Spec, Bind: p.Bind, Exec: p.Exec},
			Input:  p.Reference, FaultsPerInstr: plan.faultsPerInstr, Seed: editMeasureSeed,
			Incremental: true, Env: env}
		ct := &pipeline.CampaignTask{Prot: identityProtection(m), Bind: p.Bind(p.Reference),
			Exec: p.Exec, Trials: plan.trials, Seed: editCampaignSeed, Incremental: true, Env: env}
		var mv, cv any
		o.attempted += 2
		t0 := time.Now()
		tr.do("pipeline.measure", func() { mv, err = pipe.Run(mt) })
		if err == nil {
			tr.do("pipeline.campaign", func() { cv, err = pipe.Run(ct) })
		}
		if err != nil {
			o.failed++
			return nil, fmt.Errorf("%s: %w", p.Name, err)
		}
		run.secs = append(run.secs, time.Since(t0).Seconds())
		run.outs = append(run.outs, incrementalOut{mv.(*pipeline.MeasureOut), cv.(*pipeline.CoverageOut)})
	}
	run.stats = pipe.Stats()
	for _, s := range fm.Snapshots() {
		run.classified += s.Trials + s.Pruned
	}
	tr.add("pipeline.runs", float64(run.stats.Runs))
	tr.add("pipeline.disk_hits", float64(run.stats.DiskHits))
	tr.add("pipeline.disk_writes", float64(run.stats.DiskWrites))
	addFaultMetrics(tr, fm)
	return run, nil
}

// identityProtection is the unprotected module viewed as a protection,
// as the incremental pipeline benchmarks use it.
func identityProtection(m *ir.Module) *pipeline.ProtectOut {
	ids := make(map[int]int, m.NumInstrs())
	for i := 0; i < m.NumInstrs(); i++ {
		ids[i] = i
	}
	return &pipeline.ProtectOut{Orig: m, Mod: m, IDs: ids}
}

func runEdit(cfg config) (*outcome, error) {
	plan := editPlanFor(cfg)
	var tr *tracer
	if cfg.trace {
		tr = newTracer(fmt.Sprintf("edit-seed%d", cfg.seed))
	}
	targets, setupS, err := repeatSetup(setupRepeats, tr, func(tr *tracer) ([]*editTarget, error) {
		return setupEdit(cfg, plan, tr)
	})
	if err != nil {
		return nil, err
	}
	o := &outcome{setup: setupS}
	var progs []*core.Program
	var base []*ir.Module
	for _, t := range targets {
		progs = append(progs, t.p)
		base = append(base, t.p.Module)
	}

	// Per program and phase, the times of the timed rounds. cold_s and
	// warm_s sum each program's median: those rounds repeat one piece of
	// work. Edit choices differ several-fold in cost, and a program with
	// few of them has a median that jumps between two costs, so edit_s
	// sums each program's mean over its edit choices instead.
	var (
		cold, edit, warm = newPerProgram(len(progs)), newPerProgram(len(progs)), newPerProgram(len(progs))
		tracedS          []float64
		classified       int64
		inputs           = newDigest()
		d                = newDigest()
	)
	for _, t := range targets {
		inputs.add("%s %v", t.p.Name, t.edits)
	}
	err = rounds(cfg.budget, 3, func(r int) error {
		traced := cfg.trace && r%2 == 1
		var rt *tracer
		if traced {
			sp := tr.start("round", 0)
			defer tr.end(sp)
			rt = tr.under(sp)
			tr.rounds("round", 1)
		}
		dir := filepath.Join(cfg.work, fmt.Sprintf("edit-%d", r))
		defer removeAll(dir)
		warmDir, editDir := filepath.Join(dir, "warm"), filepath.Join(dir, "edit")

		// The edit: each program's next seeded edit choice, applied to a
		// fresh copy as a rebuild after an edit would produce.
		var mods []*ir.Module
		for _, t := range targets {
			s := t.edits[r%len(t.edits)]
			m2, err := edited(t.p.Module, s)
			if err != nil {
				return fmt.Errorf("edit %s at %v: %w", t.p.Name, s, err)
			}
			mods = append(mods, m2)
		}

		c, err := phase(rt, "cold", o, plan, warmDir, progs, base)
		if err != nil {
			return err
		}
		if err := copyDir(warmDir, editDir); err != nil {
			return err
		}
		e, err := phase(rt, "edit", o, plan, editDir, progs, mods)
		if err != nil {
			return err
		}
		var ws []*phaseRun
		for k := 0; k < plan.warmReruns; k++ {
			w, err := phase(rt, "warm", o, plan, warmDir, progs, base)
			if err != nil {
				return err
			}
			o.check(w.stats.Runs == 0, "round %d: warm rerun executed %d tasks", r, w.stats.Runs)
			o.check(sameOutputs(w.outs, c.outs), "round %d: warm rerun changed the results", r)
			ws = append(ws, w)
		}
		if r == 0 {
			// The edit run must equal a cold run of the edited modules.
			fresh, err := phase(nil, "fresh", o, plan, filepath.Join(dir, "fresh"), progs, mods)
			if err != nil {
				return err
			}
			o.check(sameOutputs(e.outs, fresh.outs), "edit run differs from a cold run of the edited modules")
			for i := range progs {
				d.add("%s cold %v %+v", progs[i].Name, c.outs[i].meas.Meas.Benefit, *c.outs[i].cov)
				d.add("%s edit %v %+v", progs[i].Name, e.outs[i].meas.Meas.Benefit, *e.outs[i].cov)
			}
			classified = c.classified
		}
		switch {
		case r == 0: // warm-up: first-use costs and checks
		case traced:
			tracedS = append(tracedS, sum(e.secs))
		default:
			cold.add(c.secs)
			edit.add(e.secs)
			for _, w := range ws {
				warm.add(w.secs)
			}
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	coldS, editS, warmS := sum(cold.medians()), sum(edit.means()), sum(warm.medians())
	fmt.Fprintf(cfg.log, "per-program seconds: cold median %.3f, edit mean %.3f\n", cold.medians(), edit.means())
	o.digest, o.inputs = d.sum(), inputs.sum()
	o.latency = editS
	o.throughput = float64(classified) / coldS
	o.named = []metric{
		{"setup_s", "s", o.setup},
		{"cold_s", "s", coldS},
		{"edit_s", "s", editS},
		{"warm_s", "s", warmS},
		{"edit_frac_of_cold", "frac", editS / coldS},
		{"cold_trials_per_s", "1/s", o.throughput},
	}
	if cfg.trace {
		o.layers = map[string]float64{
			"e2e.cold_s":          coldS,
			"e2e.warm_s":          warmS,
			"trace.overhead_frac": median(tracedS)/editS - 1,
		}
		if err := finishTrace(cfg, tr, o, "round"); err != nil {
			return nil, err
		}
	}
	return o, nil
}

// perProgram collects one phase's per-program times over rounds.
type perProgram [][]float64

func newPerProgram(n int) perProgram { return make(perProgram, n) }

func (pp perProgram) add(secs []float64) {
	for i, s := range secs {
		pp[i] = append(pp[i], s)
	}
}

func (pp perProgram) medians() []float64 {
	out := make([]float64, len(pp))
	for i, xs := range pp {
		out[i] = median(xs)
	}
	return out
}

func (pp perProgram) means() []float64 {
	out := make([]float64, len(pp))
	for i, xs := range pp {
		out[i] = sum(xs) / float64(len(xs))
	}
	return out
}

func sum(xs []float64) float64 {
	var s float64
	for _, x := range xs {
		s += x
	}
	return s
}

// sameOutputs compares the persisted parts of measurements (a warm
// rerun rebuilds the rest) and the coverage results.
func sameOutputs(a, b []incrementalOut) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		x, y := a[i].meas.Meas, b[i].meas.Meas
		if !slices.Equal(x.Cost, y.Cost) || !slices.Equal(x.DynFrac, y.DynFrac) ||
			!slices.Equal(x.SDCProb, y.SDCProb) || !slices.Equal(x.Benefit, y.Benefit) ||
			*a[i].cov != *b[i].cov {
			return false
		}
	}
	return true
}

// copyDir clones a store directory.
func copyDir(src, dst string) error {
	return filepath.Walk(src, func(path string, info os.FileInfo, err error) error {
		if err != nil {
			return err
		}
		rel, err := filepath.Rel(src, path)
		if err != nil {
			return err
		}
		out := filepath.Join(dst, rel)
		if info.IsDir() {
			return os.MkdirAll(out, 0o755)
		}
		in, err := os.Open(path)
		if err != nil {
			return err
		}
		defer in.Close()
		w, err := os.Create(out)
		if err != nil {
			return err
		}
		if _, err := io.Copy(w, in); err != nil {
			w.Close()
			return err
		}
		return w.Close()
	})
}
