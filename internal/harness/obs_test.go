package harness

import (
	"bytes"
	"math/rand"
	"slices"
	"testing"

	"repro/internal/benchprog"
	"repro/internal/fault"
	"repro/internal/interp"
	"repro/internal/obs"
)

// TestObsInvariance enforces the observational-never-semantic contract for
// the obs substrate: the rendered figure output is byte-identical with
// tracing enabled and disabled, cold (in-memory store) and warm (shared
// disk store, which also pins the Fig. 8 wall-time columns), and so are
// the outcomes of a checkpointed campaign.
func TestObsInvariance(t *testing.T) {
	benches := benchSubset(t, "pathfinder")

	// Cold, in-memory: Fig2 has no wall-time columns, so two independent
	// runs must agree byte-for-byte.
	var off, on bytes.Buffer
	rOff := NewRunner(tinyProfile())
	if err := Fig2(rOff, benches, &off); err != nil {
		t.Fatal(err)
	}
	rOn := NewRunner(tinyProfile())
	rOn.SetObs(obs.New("test"))
	defer rOn.SetObs(nil) // detach the process-global interp hook
	if err := Fig2(rOn, benches, &on); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(off.Bytes(), on.Bytes()) {
		t.Errorf("Fig2 output differs with obs enabled:\n--- off ---\n%s\n--- on ---\n%s", off.String(), on.String())
	}

	// Warm, shared disk store: Fig8's wall columns come from persisted
	// artifacts, so obs-off and obs-on reruns must also agree.
	dir := t.TempDir()
	var w8off, w8on bytes.Buffer
	r1 := NewRunner(tinyProfile())
	if err := r1.Pipe.EnableDisk(dir); err != nil {
		t.Fatal(err)
	}
	if err := Fig8(r1, benches, &w8off); err != nil {
		t.Fatal(err)
	}
	r2 := NewRunner(tinyProfile())
	if err := r2.Pipe.EnableDisk(dir); err != nil {
		t.Fatal(err)
	}
	r2.SetObs(obs.New("test"))
	defer r2.SetObs(nil)
	if err := Fig8(r2, benches, &w8on); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(w8off.Bytes(), w8on.Bytes()) {
		t.Errorf("Fig8 output differs with obs enabled:\n--- off ---\n%s\n--- on ---\n%s", w8off.String(), w8on.String())
	}

	// The obs-on run must have recorded the full task chain as spans.
	ts := rOn.Obs.Trace.Snapshot()
	found := map[string]bool{}
	ts.Walk(func(path string, _ *obs.SpanSnapshot) { found[path] = true })
	for _, kind := range []string{"compile", "measure", "search", "protect", "campaign", "eval", "inputs"} {
		if !found["pipeline/"+kind] {
			t.Errorf("span tree missing pipeline/%s (have %v)", kind, found)
		}
	}

	// And the interpreter's run accounting must have flowed into the
	// registry while attached.
	snap := rOn.Obs.Reg.Snapshot()
	if snap.Counters["interp.runs"] == 0 {
		t.Error("interp.runs counter not incremented during instrumented run")
	}
	if snap.Counters["interp.dyn_instrs"] == 0 {
		t.Error("interp.dyn_instrs counter not incremented during instrumented run")
	}

	t.Run("checkpointed-campaign", checkpointedCampaignInvariance)
}

// checkpointedCampaignInvariance extends the contract to the campaign
// trial loop: trials that resume from golden-prefix checkpoints
// and end early on re-convergence classify identically with obs on and
// off and identically to full runs, the checkpoint counters record the
// work skipped, and interp.dyn_instrs still counts each trial's full-run
// length.
func checkpointedCampaignInvariance(t *testing.T) {
	b, ok := benchprog.ByName("pathfinder")
	if !ok {
		t.Fatal("pathfinder not registered")
	}
	m := b.MustModule()
	bind := b.Bind(b.Reference)
	cfg := b.ExecConfig()
	golden := func() *fault.Golden {
		g, err := fault.RunGolden(m, bind, cfg)
		if err != nil {
			t.Fatal(err)
		}
		return g
	}
	g := golden()
	s := fault.NewSampler(m, g, false)
	rng := rand.New(rand.NewSource(3))
	var sites []interp.Fault
	for len(sites) < 80 {
		if f, ok := s.RandomSite(rng); ok {
			sites = append(sites, f)
		}
	}

	// The reference: every trial run in full.
	full := cfg
	full.MaxDynInstrs = g.DynInstrs*fault.HangFactor + 10_000
	r := interp.NewRunner(m, full)
	want := make([]fault.Outcome, len(sites))
	var dyn int64
	for i := range sites {
		res := r.Run(bind, &sites[i], nil)
		want[i] = fault.Classify(g, res)
		dyn += res.DynInstrs
	}

	// Fresh goldens, so each campaign builds its own checkpoints.
	campaign := func(g *fault.Golden, o *obs.Obs) []fault.Outcome {
		c := fault.Campaign{Mod: m, Bind: bind, Cfg: cfg, Golden: g, Workers: 1,
			Triage: fault.TriageOff, Obs: o}
		return c.RunSites(sites)
	}
	gOff, gOn := golden(), golden()
	off := campaign(gOff, nil)
	o := obs.New("test")
	interp.SetObs(o.Reg)
	on := campaign(gOn, o)
	interp.SetObs(nil)
	if !slices.Equal(off, want) || !slices.Equal(on, want) {
		t.Fatalf("checkpointed outcomes differ from full runs:\nfull %v\noff  %v\non   %v", want, off, on)
	}
	c := o.Reg.Snapshot().Counters
	if c["fault.ckpt.builds"] != 1 || c["fault.ckpt.restores"] == 0 || c["fault.ckpt.instrs_skipped"] == 0 {
		t.Errorf("checkpoint counters builds=%d restores=%d instrs_skipped=%d: trials did not resume",
			c["fault.ckpt.builds"], c["fault.ckpt.restores"], c["fault.ckpt.instrs_skipped"])
	}
	if c["interp.dyn_instrs"] != dyn {
		t.Errorf("interp.dyn_instrs = %d, want the trials' full-run total %d", c["interp.dyn_instrs"], dyn)
	}
	if c["fault.trials"] != int64(len(sites)) {
		t.Errorf("fault.trials = %d, want %d", c["fault.trials"], len(sites))
	}
}
