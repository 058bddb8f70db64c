package main

import (
	"fmt"
	"slices"
	"time"

	"repro/internal/analysis"
	"repro/internal/core"
	"repro/internal/fault"
	"repro/internal/interp"
)

// The campaign workload is the sdcfi characterization path: random-site
// injection campaigns on every single-threaded benchmark, the long ones
// included, on the reference input and seeded random inputs. It stresses
// the interpreter and the trial loop behind long golden prefixes and
// bypasses the search, selection, pipeline and server.

type campaignPlan struct {
	programs     []string
	randomInputs int // per program, besides the reference input
	trials       int // per campaign
	replaySites  int // per campaign, checked with triage off
}

func campaignPlanFor(cfg config) campaignPlan {
	if cfg.tiny {
		return campaignPlan{programs: []string{"backprop", "fft"}, randomInputs: 1, trials: 60, replaySites: 10}
	}
	return campaignPlan{programs: singleThreaded(), randomInputs: 5, trials: 250, replaySites: 15}
}

// campaignCase is one (program, input, campaign seed) campaign.
type campaignCase struct {
	p    *core.Program
	in   sized
	name string
}

func setupCampaign(cfg config, plan campaignPlan, tr *tracer) ([]campaignCase, error) {
	var cases []campaignCase
	for _, name := range plan.programs {
		p, err := compileProgram(tr, name)
		if err != nil {
			return nil, err
		}
		rng := workloadRNG(cfg.seed, "campaign/"+name)
		cases = append(cases, campaignCase{p: p, name: name + "/ref",
			in: sized{in: p.Reference, seed: rng.Int63()}})
		var ins []sized
		tr.do("inputs.generate", func() { ins, err = typicalInputs(p, rng, plan.randomInputs, inputOversample) })
		if err != nil {
			return nil, err
		}
		for i, in := range ins {
			cases = append(cases, campaignCase{p: p, in: in, name: fmt.Sprintf("%s/random%d", name, i)})
		}
	}
	return cases, nil
}

func runCampaign(cfg config) (*outcome, error) {
	plan := campaignPlanFor(cfg)
	var tr *tracer
	if cfg.trace {
		tr = newTracer(fmt.Sprintf("campaign-seed%d", cfg.seed))
	}
	cases, setupS, err := repeatSetup(setupRepeats, tr, func(tr *tracer) ([]campaignCase, error) {
		return setupCampaign(cfg, plan, tr)
	})
	if err != nil {
		return nil, err
	}
	o := &outcome{setup: setupS}
	in := newDigest()
	for _, c := range cases {
		in.add("%s %s %d", c.name, c.p.Spec.String(c.in.in), c.in.seed)
	}
	o.inputs = in.sum()

	var passS, tracedS, rates []float64
	var firstDigest string
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
		var trials int64
		t0 := time.Now()
		for _, c := range cases {
			o.attempted++
			res, err := campaignOnce(rt, c, plan.trials)
			if err != nil {
				o.failed++
				return fmt.Errorf("campaign %s: %w", c.name, err)
			}
			if res.Shortfall != 0 {
				o.failed++
			}
			var sum int64
			for _, n := range res.Counts {
				sum += n
			}
			o.check(sum == res.Trials && res.Trials+res.Shortfall == res.Requested,
				"%s: outcome counts %v do not sum to %d trials of %d requested", c.name, res.Counts, res.Trials, res.Requested)
			trials += res.Trials
			d.add("%s %v %d", c.name, res.Counts, res.Shortfall)
		}
		s := time.Since(t0).Seconds()
		switch {
		case r == 0: // warm-up: first-use costs and checks
		case traced:
			tracedS = append(tracedS, s)
			triageAll(rt, cases)
		default:
			passS = append(passS, s)
			rates = append(rates, float64(trials)/s)
		}
		if r == 0 {
			firstDigest = d.sum()
			for _, c := range cases {
				checkReplay(o, cfg, c, plan.replaySites)
			}
		}
		o.check(d.sum() == firstDigest, "round %d (traced=%v) campaign outcomes differ from round 0", r, traced)
		return nil
	})
	if err != nil {
		return nil, err
	}
	fmt.Fprintf(cfg.log, "campaign pass seconds: %.3f\n", passS)
	o.digest = firstDigest
	o.latency = median(passS)
	o.throughput = median(rates)
	o.named = []metric{
		{"setup_s", "s", o.setup},
		{"faults_per_s", "1/s", o.throughput},
		{"campaign_s", "s", o.latency},
	}
	if cfg.trace {
		o.layers = map[string]float64{"trace.overhead_frac": median(tracedS)/median(passS) - 1}
		if err := finishTrace(cfg, tr, o, "round"); err != nil {
			return nil, err
		}
	}
	return o, nil
}

// campaignOnce is core.Program.InjectionCampaign; traced, it runs the
// same golden run and fault.Campaign with campaign metrics attached.
func campaignOnce(tr *tracer, c campaignCase, trials int) (fault.CampaignResult, error) {
	if tr == nil {
		return c.p.InjectionCampaign(c.in.in, trials, c.in.seed)
	}
	fm := fault.NewMetrics()
	defer addFaultMetrics(tr, fm)
	g, err := runGolden(tr, c.p, c.in.in)
	if err != nil {
		return fault.CampaignResult{}, err
	}
	camp := &fault.Campaign{Mod: c.p.Module, Bind: c.p.Bind(c.in.in), Cfg: c.p.Exec, Golden: g,
		Metrics: fm.Phase(fault.PhaseProgramFI)}
	var res fault.CampaignResult
	tr.do("fault.campaign", func() { res = camp.Run(trials, c.in.seed) })
	return res, nil
}

// triageAll times the static triage of every program from scratch: the
// cost a campaign pays on its first use of a module. It runs outside the
// timed pass because campaigns reuse the memoized triage.
func triageAll(tr *tracer, cases []campaignCase) {
	seen := map[*core.Program]bool{}
	for _, c := range cases {
		if !seen[c.p] {
			seen[c.p] = true
			tr.do("analysis.triage", func() { analysis.NewTriage(c.p.Module) })
		}
	}
}

// checkReplay replays a seeded sample of sites of one campaign with the
// static triage off and requires the outcomes the default (pruning)
// policy gives.
func checkReplay(o *outcome, cfg config, c campaignCase, n int) {
	g, err := fault.RunGolden(c.p.Module, c.p.Bind(c.in.in), c.p.Exec)
	if err != nil {
		o.check(false, "%s: golden run: %v", c.name, err)
		return
	}
	sampler := fault.NewSampler(c.p.Module, g, false)
	rng := workloadRNG(cfg.seed, "campaign/replay/"+c.name)
	var sites []interp.Fault
	for tries := 0; len(sites) < n && tries < 100*n; tries++ {
		if s, ok := sampler.RandomSite(rng); ok {
			sites = append(sites, s)
		}
	}
	camp := fault.Campaign{Mod: c.p.Module, Bind: c.p.Bind(c.in.in), Cfg: c.p.Exec, Golden: g}
	auto := camp.RunSites(sites)
	camp.Triage = fault.TriageOff
	off := camp.RunSites(sites)
	o.check(slices.Equal(auto, off), "%s: replay with triage off changed outcomes", c.name)
}
