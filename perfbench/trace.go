package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"sort"
	"sync"
	"text/tabwriter"
	"time"
)

// span is one recorded interval around a call into a layer. Times are
// nanoseconds since the run started; Parent 0 marks a root span.
type span struct {
	Run    string `json:"run"`
	ID     int    `json:"id"`
	Parent int    `json:"parent"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// traceLog keeps a traced run's spans and counters in memory until the
// run ends.
type traceLog struct {
	mu     sync.Mutex
	run    string
	t0     time.Time
	spans  []span
	counts map[string]float64
}

// tracer records spans under a default parent. A nil *tracer records
// nothing, so untraced code paths pay only a nil check.
type tracer struct {
	log    *traceLog
	parent int
}

func newTracer(run string) *tracer {
	return &tracer{log: &traceLog{run: run, t0: time.Now(), counts: map[string]float64{}}}
}

// under returns a view of t whose spans default to the given parent.
func (t *tracer) under(parent int) *tracer {
	if t == nil {
		return nil
	}
	return &tracer{log: t.log, parent: parent}
}

// start opens a span under t's default parent and returns its ID.
func (t *tracer) start(name string, parent int) int {
	if t == nil {
		return 0
	}
	if parent == 0 {
		parent = t.parent
	}
	l := t.log
	now := time.Since(l.t0).Nanoseconds()
	l.mu.Lock()
	defer l.mu.Unlock()
	id := len(l.spans) + 1
	l.spans = append(l.spans, span{Run: l.run, ID: id, Parent: parent, Name: name, Start: now, End: -1})
	return id
}

// end closes span id.
func (t *tracer) end(id int) {
	if t == nil || id == 0 {
		return
	}
	l := t.log
	now := time.Since(l.t0).Nanoseconds()
	l.mu.Lock()
	l.spans[id-1].End = now
	l.mu.Unlock()
}

// do runs f inside a span named name.
func (t *tracer) do(name string, f func()) {
	id := t.start(name, 0)
	f()
	t.end(id)
}

// add accumulates a per-layer counter.
func (t *tracer) add(name string, v float64) {
	if t == nil {
		return
	}
	t.log.mu.Lock()
	t.log.counts[name] += v
	t.log.mu.Unlock()
}

// rounds records that n more rounds of the given kind were traced; the
// per-layer values are normalised by these counts.
func (t *tracer) rounds(kind string, n int) { t.add("rounds."+kind, float64(n)) }

// layerTotals is the per-name aggregate of a trace: self time (a span's
// duration minus the part of it its children cover) and span count.
type layerTotals struct {
	self  map[string]float64 // seconds
	count map[string]int
}

func (t *tracer) totals() layerTotals {
	l := t.log
	l.mu.Lock()
	defer l.mu.Unlock()
	children := map[int][]span{}
	for _, s := range l.spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	out := layerTotals{self: map[string]float64{}, count: map[string]int{}}
	for _, s := range l.spans {
		if s.End < 0 {
			continue
		}
		covered := coveredNs(s, children[s.ID])
		out.self[s.Name] += float64(s.End-s.Start-covered) / 1e9
		out.count[s.Name]++
	}
	return out
}

// coveredNs is the length of the union of the children's intervals
// clipped to the parent's interval; concurrent children may overlap.
func coveredNs(p span, kids []span) int64 {
	type iv struct{ a, b int64 }
	var ivs []iv
	for _, k := range kids {
		a, b := max(k.Start, p.Start), min(k.End, p.End)
		if k.End >= 0 && b > a {
			ivs = append(ivs, iv{a, b})
		}
	}
	sort.Slice(ivs, func(i, j int) bool { return ivs[i].a < ivs[j].a })
	var total, end int64 = 0, -1
	for _, v := range ivs {
		if v.a > end {
			total += v.b - v.a
			end = v.b
		} else if v.b > end {
			total += v.b - end
			end = v.b
		}
	}
	return total
}

// counter returns an accumulated counter.
func (t *tracer) counter(name string) float64 {
	t.log.mu.Lock()
	defer t.log.mu.Unlock()
	return t.log.counts[name]
}

// write stores every span as one JSON object per line.
func (t *tracer) write(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	t.log.mu.Lock()
	for _, s := range t.log.spans {
		if err := enc.Encode(s); err != nil {
			t.log.mu.Unlock()
			f.Close()
			return err
		}
	}
	t.log.mu.Unlock()
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// table prints the per-span-name self times and counts, then the
// per-layer metrics of the run.
func (t *tracer) table(w io.Writer, layers map[string]float64) {
	tot := t.totals()
	names := make([]string, 0, len(tot.self))
	for n := range tot.self {
		names = append(names, n)
	}
	sort.Strings(names)
	tw := tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
	fmt.Fprintln(tw, "span\tcount\tself_s")
	for _, n := range names {
		fmt.Fprintf(tw, "%s\t%d\t%.6f\n", n, tot.count[n], tot.self[n])
	}
	fmt.Fprintln(tw, "\nper-layer metric\tvalue\tunit")
	for _, m := range perLayer {
		fmt.Fprintf(tw, "%s\t%.6g\t%s\n", m.name, layers[m.name], m.unit)
	}
	tw.Flush()
}

// finishTrace turns a traced run's spans and counters into the per-layer
// metrics, prints the table and writes the span file. perRound names the round kind the times are
// normalised by.
func finishTrace(cfg config, tr *tracer, o *outcome, perRound string) error {
	tot := tr.totals()
	n := tr.counter("rounds." + perRound)
	if n == 0 {
		n = 1
	}
	setups := tr.counter("rounds.setup")
	if setups == 0 {
		setups = 1
	}
	if o.layers == nil {
		o.layers = map[string]float64{}
	}
	L := o.layers
	L["minicc.compile_s"] = tot.self["minicc.compile"] / setups
	for _, name := range []string{"analysis.triage", "interp.golden", "minpsid.ref_fi",
		"sid.select", "sid.duplicate", "pipeline.measure", "pipeline.campaign",
		"server.submit", "server.wait", "server.result"} {
		L[name+"_s"] = tot.self[name] / n
	}
	for _, name := range []string{"interp.golden_runs", "fault.trials", "minpsid.fitness_evals",
		"minpsid.incubative", "pipeline.runs", "pipeline.disk_hits", "pipeline.disk_writes",
		"server.rejects", "server.shards"} {
		L[name] = tr.counter(name) / n
	}
	L["fault.inject_s"] = tr.counter("fault.wall_s") / n
	L["minpsid.search_engine_s"] = tr.counter("minpsid.search_engine_s") / n
	L["minpsid.incubative_fi_s"] = tr.counter("minpsid.incubative_fi_s") / n
	L["analysis.pruned_frac"] = ratio(tr.counter("fault.pruned"), tr.counter("fault.pruned")+tr.counter("fault.trials"))
	L["interp.ns_per_instr"] = ratio(tot.self["interp.golden"]*1e9, tr.counter("interp.golden_instrs"))
	L["fault.ns_per_trial"] = ratio(tr.counter("fault.busy_s")*1e9, tr.counter("fault.trials"))
	L["fault.busy_frac"] = ratio(tr.counter("fault.busy_s"), tr.counter("fault.worker_s"))
	L["fault.cache_hit_rate"] = ratio(tr.counter("cache.hits"), tr.counter("cache.lookups"))
	L["pipeline.hit_rate"] = ratio(tr.counter("pipeline.disk_hits"), tr.counter("pipeline.disk_hits")+tr.counter("pipeline.runs"))
	L["server.dedup_frac"] = ratio(tr.counter("server.deduped"), tr.counter("server.submits"))
	L["e2e.failed_frac"] = ratio(float64(o.failed), float64(o.attempted))

	tr.table(cfg.log, L)
	return tr.write(cfg.spans)
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
