package main

import (
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"fmt"
	"hash"
	"math/rand"
	"sort"

	"repro/internal/benchprog"
	"repro/internal/core"
	"repro/internal/fault"
	"repro/internal/inputgen"
	"repro/internal/interp"
	"repro/internal/minicc"
	"repro/internal/passes"
)

// singleThreaded lists the benchmarks whose campaigns run on one
// simulated thread (every built-in benchmark except fft-mt).
func singleThreaded() []string {
	var names []string
	for _, b := range benchprog.All() {
		if b.Name != "fft-mt" {
			names = append(names, b.Name)
		}
	}
	return names
}

// compileProgram compiles a built-in benchmark from its MiniC source. It
// does not use the benchmark registry's memoized module, so every set-up
// pays the compiler.
func compileProgram(tr *tracer, name string) (*core.Program, error) {
	b, ok := benchprog.ByName(name)
	if !ok {
		return nil, fmt.Errorf("unknown benchmark %q", name)
	}
	sp := tr.start("minicc.compile", 0)
	defer tr.end(sp)
	m, err := minicc.Compile(b.Name+".mc", b.Source)
	if err != nil {
		return nil, fmt.Errorf("compile %s: %w", name, err)
	}
	if err := passes.Optimize(m); err != nil {
		return nil, fmt.Errorf("optimize %s: %w", name, err)
	}
	return &core.Program{Name: b.Name, Module: m, Spec: b.Spec, Reference: b.Reference,
		Bind: b.Bind, Exec: b.ExecConfig()}, nil
}

var errNoInputs = errors.New("no admissible inputs")

// inputOversample is how many random inputs set-up draws per input kept.
const inputOversample = 4

// sized is a generated input with the dynamic length of its fault-free run.
type sized struct {
	in   inputgen.Input
	seed int64 // the seed the input was drawn from
	dyn  int64
}

// typicalInputs draws oversample*n admissible random inputs and keeps the
// n whose fault-free runs are nearest the reference input's length. A
// trial's cost grows with the input's length, and random lengths differ
// several-fold (fft's come in a few discrete sizes); keeping
// reference-length inputs holds a run's work nearly constant from seed to
// seed, while the inputs themselves still change with the seed.
func typicalInputs(p *core.Program, rng *rand.Rand, n, oversample int) ([]sized, error) {
	ref := p.Run(p.Reference)
	if ref.Status != interp.StatusOK {
		return nil, fmt.Errorf("%s: reference input: %w", p.Name, errNoInputs)
	}
	var pool []sized
	for tries := 0; len(pool) < n*oversample; tries++ {
		if tries > 20*n*oversample {
			return nil, fmt.Errorf("%s: %w", p.Name, errNoInputs)
		}
		seed := rng.Int63()
		in := p.RandomInput(rand.New(rand.NewSource(seed)))
		if r := p.Run(in); r.Status == interp.StatusOK {
			pool = append(pool, sized{in: in, seed: seed, dyn: r.DynInstrs})
		}
	}
	dist := func(s sized) int64 {
		d := s.dyn - ref.DynInstrs
		if d < 0 {
			return -d
		}
		return d
	}
	sort.SliceStable(pool, func(i, j int) bool { return dist(pool[i]) < dist(pool[j]) })
	return pool[:n], nil
}

// workloadRNG derives an independent generator for one purpose of a
// workload from the run's seed.
func workloadRNG(seed int64, purpose string) *rand.Rand {
	h := sha256.Sum256([]byte(fmt.Sprintf("%d/%s", seed, purpose)))
	var s int64
	for _, b := range h[:8] {
		s = s<<8 | int64(b)
	}
	return rand.New(rand.NewSource(s))
}

// digest accumulates a workload's deterministic outputs.
type digest struct{ h hash.Hash }

func newDigest() *digest { return &digest{h: sha256.New()} }

func (d *digest) add(format string, args ...any) { fmt.Fprintf(d.h, format+"\n", args...) }

func (d *digest) sum() string { return hex.EncodeToString(d.h.Sum(nil))[:16] }

// addFaultMetrics folds the campaign engine's per-phase counters into
// the trace.
func addFaultMetrics(tr *tracer, fm *fault.Metrics) {
	for _, s := range fm.Snapshots() {
		tr.add("fault.trials", float64(s.Trials))
		tr.add("fault.pruned", float64(s.Pruned))
		tr.add("fault.wall_s", s.Wall.Seconds())
		tr.add("fault.busy_s", s.Busy.Seconds())
		tr.add("fault.worker_s", s.Wall.Seconds()*float64(s.MaxWorkers))
		tr.add("interp.golden_runs", float64(s.GoldenRuns))
		tr.add("cache.hits", float64(s.CacheHits))
		tr.add("cache.lookups", float64(s.CacheHits+s.CacheMisses))
	}
}

// runGolden is fault.RunGolden inside an interp.golden span.
func runGolden(tr *tracer, p *core.Program, in inputgen.Input) (*fault.Golden, error) {
	sp := tr.start("interp.golden", 0)
	g, err := fault.RunGolden(p.Module, p.Bind(in), p.Exec)
	tr.end(sp)
	if err == nil {
		tr.add("interp.golden_runs", 1)
		tr.add("interp.golden_instrs", float64(g.DynInstrs))
	}
	return g, err
}
