// Command perfbench is the repository benchmark. Each workload drives the
// MINPSID reproduction only through its public Go APIs, checks the
// outputs, and prints one JSON result line:
//
//	perfbench --workload protect --seed 1 --seconds 20 --trace 0
//
// With --trace 0 the result carries the end-to-end metrics; with
// --trace 1 it carries the per-layer metrics taken from spans the
// benchmark records around its own calls into each layer. README.md
// explains the workloads, the metrics and what each layer should move.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"syscall"
	"time"
)

// maxWorkers caps the benchmark's load: one process with at most this
// many campaign workers and server clients.
const maxWorkers = 2

// config is one benchmark invocation.
type config struct {
	seed   int64
	budget time.Duration // how long the measured phase runs
	trace  bool
	tiny   bool   // self-test scale: minimal programs, trials and rounds
	work   string // scratch directory for artifact stores
	spans  string // where a traced run writes its spans
	log    io.Writer
}

// workers is the campaign worker count every workload uses.
func workers() int {
	if n := runtime.NumCPU(); n < maxWorkers {
		return n
	}
	return maxWorkers
}

// outcome is what a workload reports.
type outcome struct {
	attempted, failed int
	setup             float64 // median set-up seconds
	latency           float64 // median seconds of the workload's user operation
	throughput        float64 // work completed per second
	// named holds the workload's metrics under its own names, printed for
	// people; the gated JSON uses the generic names.
	named []metric
	// layers holds the per-layer values of a traced run.
	layers map[string]float64
	// digest summarises every deterministic output; inputs summarises
	// the generated inputs. Both depend only on the seed.
	digest, inputs string
	// problems lists failed correctness checks.
	problems []string
}

func (o *outcome) check(ok bool, format string, args ...any) {
	if !ok {
		o.problems = append(o.problems, fmt.Sprintf(format, args...))
	}
}

type metric struct {
	name  string
	unit  string
	value float64
}

// endToEnd lists the gated metrics every workload reports.
var endToEnd = []metric{
	{name: "setup_s", unit: "s"},
	{name: "peak_rss_mb", unit: "MB"},
	{name: "latency_s", unit: "s"},
	{name: "throughput_per_s", unit: "1/s"},
}

// perLayer lists the traced run's metrics. Times and counts are means per
// traced round (serve: per job); a workload that bypasses a layer reports
// zero for it.
var perLayer = []metric{
	{name: "minicc.compile_s", unit: "s"},
	{name: "analysis.triage_s", unit: "s"},
	{name: "analysis.pruned_frac", unit: "frac"},
	{name: "interp.golden_s", unit: "s"},
	{name: "interp.golden_runs", unit: "count"},
	{name: "interp.ns_per_instr", unit: "ns"},
	{name: "fault.inject_s", unit: "s"},
	{name: "fault.trials", unit: "count"},
	{name: "fault.ns_per_trial", unit: "ns"},
	{name: "fault.busy_frac", unit: "frac"},
	{name: "fault.cache_hit_rate", unit: "frac"},
	{name: "minpsid.ref_fi_s", unit: "s"},
	{name: "minpsid.search_engine_s", unit: "s"},
	{name: "minpsid.incubative_fi_s", unit: "s"},
	{name: "minpsid.fitness_evals", unit: "count"},
	{name: "minpsid.incubative", unit: "count"},
	{name: "sid.select_s", unit: "s"},
	{name: "sid.duplicate_s", unit: "s"},
	{name: "pipeline.measure_s", unit: "s"},
	{name: "pipeline.campaign_s", unit: "s"},
	{name: "pipeline.runs", unit: "count"},
	{name: "pipeline.disk_hits", unit: "count"},
	{name: "pipeline.hit_rate", unit: "frac"},
	{name: "pipeline.disk_writes", unit: "count"},
	{name: "server.submit_s", unit: "s"},
	{name: "server.wait_s", unit: "s"},
	{name: "server.result_s", unit: "s"},
	{name: "server.dedup_frac", unit: "frac"},
	{name: "server.rejects", unit: "count"},
	{name: "server.shards", unit: "count"},
	{name: "e2e.coverage_mean", unit: "frac"},
	{name: "e2e.loss_frac", unit: "frac"},
	{name: "e2e.failed_frac", unit: "frac"},
	{name: "e2e.job_p90_s", unit: "s"},
	{name: "e2e.cold_s", unit: "s"},
	{name: "e2e.warm_s", unit: "s"},
	{name: "trace.overhead_frac", unit: "frac"},
}

var workloads = map[string]func(config) (*outcome, error){
	"protect":  runProtect,
	"campaign": runCampaign,
	"serve":    runServe,
	"edit":     runEdit,
}

func main() {
	var (
		workload = flag.String("workload", "", "workload: protect, campaign, serve or edit")
		seed     = flag.Int64("seed", 1, "seed of the generated inputs")
		seconds  = flag.Int("seconds", 20, "length of the measured phase")
		trace    = flag.Int("trace", 0, "1 = traced run reporting per-layer metrics")
		work     = flag.String("work", ".bench_build", "scratch directory for stores and spans")
	)
	flag.Parse()
	run, ok := workloads[*workload]
	if !ok || *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(os.Stderr, "usage: perfbench --workload protect|campaign|serve|edit --seed N --seconds S --trace 0|1")
		os.Exit(2)
	}
	runtime.GOMAXPROCS(workers())
	cfg := config{seed: *seed, budget: time.Duration(*seconds) * time.Second,
		trace: *trace == 1, log: os.Stderr,
		spans: filepath.Join(*work, "spans", fmt.Sprintf("%s-seed%d.jsonl", *workload, *seed))}
	if err := os.MkdirAll(filepath.Dir(cfg.spans), 0o755); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	dir, err := os.MkdirTemp(*work, "run-")
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	cfg.work = dir
	o, err := run(cfg)
	removeAll(dir)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench %s: %v\n", *workload, err)
		os.Exit(1)
	}
	line, err := resultLine(o, cfg.trace, peakRSSMB())
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	fmt.Printf("workload %s seed %d: digest %s inputs %s\n", *workload, *seed, o.digest, o.inputs)
	for _, m := range o.named {
		fmt.Printf("  %-22s %14.6g %s\n", m.name, m.value, m.unit)
	}
	for _, p := range o.problems {
		fmt.Println("  CHECK FAILED:", p)
	}
	fmt.Println(string(line))
	if len(o.problems) > 0 {
		os.Exit(1)
	}
}

// resultLine renders the final JSON line.
func resultLine(o *outcome, traced bool, rss float64) ([]byte, error) {
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	metrics := map[string]value{}
	if traced {
		for _, m := range perLayer {
			v := o.layers[m.name]
			if math.IsNaN(v) || math.IsInf(v, 0) {
				v = 0
			}
			metrics[m.name] = value{v, m.unit}
		}
	} else {
		vals := map[string]float64{"setup_s": o.setup, "peak_rss_mb": rss,
			"latency_s": o.latency, "throughput_per_s": o.throughput}
		for _, m := range endToEnd {
			v := vals[m.name]
			if !(v > 0) || math.IsInf(v, 0) {
				return nil, fmt.Errorf("end-to-end metric %s is %v", m.name, v)
			}
			metrics[m.name] = value{v, m.unit}
		}
	}
	return json.Marshal(struct {
		Correct   bool             `json:"correct"`
		Attempted int              `json:"attempted"`
		Failed    int              `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{len(o.problems) == 0, o.attempted, o.failed, metrics})
}

// peakRSSMB is the process's peak resident set size in MiB.
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports KiB
}

// removeAll deletes a scratch directory. Server job goroutines may still
// be writing their final records when a run ends, so a failed removal is
// retried once after they have had time to finish.
func removeAll(dir string) {
	if os.RemoveAll(dir) == nil {
		return
	}
	time.Sleep(200 * time.Millisecond)
	if err := os.RemoveAll(dir); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench: leaving", dir, ":", err)
	}
}

// median returns the median of xs (0 for none).
func median(xs []float64) float64 {
	return quantile(xs, 0.5)
}

// quantile returns the q-quantile of xs by linear interpolation.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return s[lo] + (s[hi]-s[lo])*(pos-float64(lo))
}

// repeatSetup runs a workload's set-up n times and returns the last
// result with the median set-up time. Set-up is cheap next to the
// measured phase, so repeating it steadies setup_s.
func repeatSetup[T any](n int, tr *tracer, setup func(tr *tracer) (T, error)) (T, float64, error) {
	var (
		last  T
		times []float64
	)
	for i := 0; i < n; i++ {
		sp := tr.start("setup", 0)
		t0 := time.Now()
		v, err := setup(tr.under(sp))
		times = append(times, time.Since(t0).Seconds())
		tr.end(sp)
		if err != nil {
			return last, 0, err
		}
		last = v
	}
	tr.rounds("setup", n)
	return last, median(times), nil
}

// setupRepeats is how many times each workload sets up.
const setupRepeats = 7

// rounds runs round(i) until the budget is spent, always at least min
// rounds. A round starts only if the previous round's length still fits,
// so a run overshoots its budget by less than one round.
func rounds(budget time.Duration, min int, round func(i int) error) error {
	start := time.Now()
	var last time.Duration
	for i := 0; ; i++ {
		if i >= min && time.Since(start)+last > budget {
			return nil
		}
		t0 := time.Now()
		if err := round(i); err != nil {
			return err
		}
		last = time.Since(t0)
	}
}
