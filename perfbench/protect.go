package main

import (
	"fmt"
	"slices"
	"time"

	"repro/internal/core"
	"repro/internal/fault"
	"repro/internal/interp"
	"repro/internal/minpsid"
	"repro/internal/sid"
)

// The protect workload is the paper's user path: protect each program
// with SID and MINPSID, then measure true SDC coverage on seeded random
// evaluation inputs. pathfinder and needle lose coverage off the
// reference input (input-sensitive); knn and fft barely do.
var protectPrograms = []string{"pathfinder", "knn", "needle", "fft"}

const protectLevel = 0.5

var techniques = []core.Technique{core.TechniqueSID, core.TechniqueMINPSID}

type protectPlan struct {
	programs   []string
	evalInputs int // per program
	evalTrials int // per (protection, input) cell
}

func protectPlanFor(cfg config) protectPlan {
	if cfg.tiny {
		return protectPlan{programs: []string{"knn"}, evalInputs: 2, evalTrials: 40}
	}
	return protectPlan{programs: protectPrograms, evalInputs: 8, evalTrials: 200}
}

type protectSetup struct {
	progs []*core.Program
	evals [][]sized // per program
}

func setupProtect(cfg config, plan protectPlan, tr *tracer) (*protectSetup, error) {
	s := &protectSetup{}
	for _, name := range plan.programs {
		p, err := compileProgram(tr, name)
		if err != nil {
			return nil, err
		}
		var ins []sized
		tr.do("inputs.generate", func() {
			ins, err = typicalInputs(p, workloadRNG(cfg.seed, "protect/"+name), plan.evalInputs, inputOversample)
		})
		if err != nil {
			return nil, err
		}
		s.progs = append(s.progs, p)
		s.evals = append(s.evals, ins)
	}
	return s, nil
}

func protectOptions() core.Options {
	opts := core.QuickOptions()
	opts.Workers = workers()
	return opts
}

// cell is one (program, technique, evaluation input) coverage result.
type cell struct {
	cov, expected float64
	defined       bool
	minpsid       bool
}

func runProtect(cfg config) (*outcome, error) {
	plan := protectPlanFor(cfg)
	var tr *tracer
	if cfg.trace {
		tr = newTracer(fmt.Sprintf("protect-seed%d", cfg.seed))
	}
	s, setupS, err := repeatSetup(setupRepeats, tr, func(tr *tracer) (*protectSetup, error) {
		return setupProtect(cfg, plan, tr)
	})
	if err != nil {
		return nil, err
	}
	o := &outcome{setup: setupS}
	in := newDigest()
	for i, p := range s.progs {
		for _, e := range s.evals[i] {
			in.add("%s %s", p.Name, p.Spec.String(e.in))
		}
	}
	o.inputs = in.sum()

	var (
		protectS, tracedS, rates []float64
		cells                    []cell
		firstDigest              string
	)
	err = rounds(cfg.budget, 3, func(r int) error {
		traced := cfg.trace && r%2 == 1
		var rt *tracer
		if traced {
			sp := tr.start("round", 0)
			defer tr.end(sp)
			rt = tr.under(sp)
			tr.rounds("round", 1)
		}
		d := newDigest()
		t0 := time.Now()
		prots, err := protectAll(o, s, rt)
		if err != nil {
			return err
		}
		pS := time.Since(t0).Seconds()
		if r == 0 {
			checkProtectedOutputs(o, s, prots)
		}
		for _, pr := range prots {
			d.add("%s %s chosen=%v incubative=%v expected=%.12g", pr.Program.Name, pr.Technique,
				pr.Chosen, pr.Incubative, pr.ExpectedCoverage)
		}
		t1 := time.Now()
		rc, trials := evaluateAll(o, s, plan, prots, rt, d)
		evalS := time.Since(t1).Seconds()
		switch {
		case r == 0: // warm-up: first-use costs and checks
		case traced:
			tracedS = append(tracedS, pS)
		default:
			protectS = append(protectS, pS)
			rates = append(rates, float64(trials)/evalS)
		}
		sum := d.sum()
		if r == 0 {
			firstDigest, cells = sum, rc
		}
		o.check(sum == firstDigest, "round %d (traced=%v) selections or coverage differ from round 0", r, traced)
		return nil
	})
	if err != nil {
		return nil, err
	}
	fmt.Fprintf(cfg.log, "protect pass seconds: %.3f, eval trials/s: %.0f\n", protectS, rates)
	o.digest = firstDigest
	o.latency = median(protectS)
	o.throughput = median(rates)

	var covSum float64
	var covN, lost, defined int
	for _, c := range cells {
		if !c.defined {
			continue
		}
		defined++
		if c.cov < c.expected {
			lost++
		}
		if c.minpsid {
			covSum += c.cov
			covN++
		}
	}
	coverage, loss := ratio(covSum, float64(covN)), ratio(float64(lost), float64(defined))
	o.check(covN > 0, "no defined MINPSID coverage cell")
	o.named = []metric{
		{"setup_s", "s", o.setup},
		{"protect_s", "s", o.latency},
		{"eval_trials_per_s", "1/s", o.throughput},
		{"coverage_mean", "frac", coverage},
		{"loss_frac", "frac", loss},
	}
	if cfg.trace {
		o.layers = map[string]float64{
			"e2e.coverage_mean":   coverage,
			"e2e.loss_frac":       loss,
			"trace.overhead_frac": median(tracedS)/median(protectS) - 1,
		}
		if err := finishTrace(cfg, tr, o, "round"); err != nil {
			return nil, err
		}
	}
	return o, nil
}

// protectAll protects every program with both techniques: through
// core.Program.Protect untraced, and stage by stage when traced.
func protectAll(o *outcome, s *protectSetup, tr *tracer) ([]*core.Protection, error) {
	opts := protectOptions()
	var prots []*core.Protection
	for _, p := range s.progs {
		for _, tech := range techniques {
			o.attempted++
			var pr *core.Protection
			var err error
			if tr == nil {
				pr, err = p.Protect(tech, protectLevel, opts)
			} else {
				pr, err = protectStaged(tr, p, tech, opts)
			}
			if err != nil {
				o.failed++
				return nil, fmt.Errorf("protect %s with %s: %w", p.Name, tech, err)
			}
			prots = append(prots, pr)
		}
	}
	return prots, nil
}

// protectStaged runs the documented oracle of core.Protect's task graph
// one stage at a time: sid.Measure, then for MINPSID minpsid.Search and
// Reprioritize, then sid.Select and sid.Duplicate. Like Protect, each
// technique measures the reference input itself.
func protectStaged(tr *tracer, p *core.Program, tech core.Technique, opts core.Options) (*core.Protection, error) {
	fm := fault.NewMetrics()
	defer addFaultMetrics(tr, fm)
	golden, err := runGolden(tr, p, p.Reference)
	if err != nil {
		return nil, err
	}
	var meas *sid.Measurement
	tr.do("minpsid.ref_fi", func() {
		meas, err = sid.MeasureWithGolden(p.Module, p.Bind(p.Reference), sid.Config{
			Exec: p.Exec, FaultsPerInstr: opts.FaultsPerInstr, Seed: opts.Seed,
			Workers: opts.Workers, Metrics: fm.Phase(fault.PhaseRefFI)}, golden)
	})
	if err != nil {
		return nil, err
	}
	pr := &core.Protection{Program: p, Technique: tech, Level: protectLevel}
	if tech == core.TechniqueMINPSID {
		tgt := minpsid.Target{Mod: p.Module, Spec: p.Spec, Bind: p.Bind, Exec: p.Exec}
		var sr *minpsid.SearchResult
		tr.do("minpsid.search", func() {
			sr = minpsid.Search(tgt, minpsid.Config{
				FaultsPerInstr: opts.FaultsPerInstr, MaxInputs: opts.SearchMaxInputs,
				Patience: opts.SearchPatience, PopSize: opts.PopSize,
				MaxGenerations: opts.MaxGenerations, Strategy: opts.SearchStrategy,
				Seed: opts.Seed, Workers: opts.Workers, Metrics: fm}, p.Reference, meas)
		})
		tr.add("minpsid.search_engine_s", sr.EngineTime.Seconds())
		tr.add("minpsid.incubative_fi_s", sr.FITime.Seconds())
		tr.add("minpsid.fitness_evals", float64(sr.FitnessEvals))
		tr.add("minpsid.incubative", float64(len(sr.Incubative)))
		tr.do("minpsid.reprioritize", func() { meas = minpsid.Reprioritize(meas, sr) })
		pr.Incubative = sr.Incubative
	}
	var sel sid.Selection
	tr.do("sid.select", func() { sel = sid.Select(p.Module, meas, protectLevel, sid.MethodDP) })
	tr.do("sid.duplicate", func() { pr.Module = sid.Duplicate(p.Module, sel.Chosen) })
	pr.Chosen = sel.Chosen
	pr.ExpectedCoverage = sel.ExpectedCoverage
	return pr, nil
}

// evaluateAll measures true coverage of every protection on its
// program's evaluation inputs and returns the cells and the number of
// injection runs.
func evaluateAll(o *outcome, s *protectSetup, plan protectPlan, prots []*core.Protection, tr *tracer, d *digest) ([]cell, int64) {
	var (
		cells  []cell
		trials int64
	)
	for k, pr := range prots {
		for _, e := range s.evals[k/len(techniques)] {
			o.attempted++
			rep, err := evaluate(tr, pr, e, plan.evalTrials)
			if err != nil {
				o.failed++
				o.check(false, "evaluate %s/%s: %v", pr.Program.Name, pr.Technique, err)
				continue
			}
			// Each SDC fault of the sample is replayed on the protected
			// binary: an injection run like the sampled ones.
			trials += rep.Result.Trials + rep.Result.SDCFaults
			d.add("%s %s %d cov=%.12g defined=%v", pr.Program.Name, pr.Technique, e.seed, rep.Coverage, rep.Defined)
			cells = append(cells, cell{cov: rep.Coverage, expected: pr.ExpectedCoverage,
				defined: rep.Defined, minpsid: pr.Technique == core.TechniqueMINPSID})
		}
	}
	return cells, trials
}

// evaluate is Protection.EvaluateTrueCoverage; traced, it calls the
// same fault.TrueCoverageOpts with campaign metrics attached.
func evaluate(tr *tracer, pr *core.Protection, e sized, trials int) (core.TrueCoverageReport, error) {
	if tr == nil {
		return pr.EvaluateTrueCoverage(e.in, trials, e.seed)
	}
	fm := fault.NewMetrics()
	defer addFaultMetrics(tr, fm)
	sp := tr.start("fault.true_coverage", 0)
	defer tr.end(sp)
	res, err := fault.TrueCoverageOpts(pr.Program.Module, pr.Module,
		sid.ProtectedMap(pr.Program.Module, pr.Chosen), pr.Program.Bind(e.in), pr.Program.Exec,
		fault.CoverageOptions{Trials: trials, Seed: e.seed, Workers: workers(),
			Metrics: fm.Phase(fault.PhaseEvaluation)})
	if err != nil {
		return core.TrueCoverageReport{}, err
	}
	cov, ok := res.Coverage()
	if !ok {
		cov = 1
	}
	return core.TrueCoverageReport{Coverage: cov, Defined: ok, Result: res}, nil
}

// checkProtectedOutputs requires every protected module to reproduce the
// unprotected program's fault-free output on every evaluation input.
func checkProtectedOutputs(o *outcome, s *protectSetup, prots []*core.Protection) {
	for k, pr := range prots {
		p := s.progs[k/len(techniques)]
		for _, e := range s.evals[k/len(techniques)] {
			want := p.Run(e.in)
			got := interp.NewRunner(pr.Module, p.Exec).Run(p.Bind(e.in), nil, nil)
			o.check(got.Status == interp.StatusOK && want.Status == interp.StatusOK &&
				slices.Equal(got.Output, want.Output),
				"%s/%s: protected output differs on input %s", p.Name, pr.Technique, p.Spec.String(e.in))
		}
	}
}
