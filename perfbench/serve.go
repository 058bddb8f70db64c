package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"math/rand"
	"net"
	"net/http"
	"path/filepath"
	"strings"
	"sync"
	"time"

	"repro/internal/core"
	"repro/internal/server"
)

// The serve workload is the campaign service: server.New behind an
// http.Server on loopback with a fresh store, and two closed-loop
// clients that each submit a job, wait for it and fetch its result
// (sdcfi submit + watch) before sending the next. The job mix is mostly
// fresh campaigns, a share of exact duplicates that join an existing job,
// and two tenants. It stresses scheduling, HTTP, shard dispatch and store
// writes and bypasses the search.

type servePlan struct {
	programs []string
	inputs   int     // random inputs per program, besides the reference
	trials   [2]int  // campaign size range a job's size is drawn from
	dupFrac  float64 // share of submissions repeating an earlier spec
	minJobs  int
	sampleOf int // the checked job is drawn from the first sampleOf jobs
	clients  int
}

func servePlanFor(cfg config) servePlan {
	p := servePlan{programs: singleThreaded(), inputs: 3, trials: [2]int{100, 300},
		dupFrac: 0.2, minJobs: 100, sampleOf: 20, clients: maxWorkers}
	if cfg.tiny {
		p.programs, p.inputs, p.trials, p.minJobs, p.sampleOf = []string{"backprop", "fft"}, 1, [2]int{30, 50}, 10, 5
	}
	return p
}

var tenants = []string{"tenant-a", "tenant-b"}

// jobPool is the per-program set of admissible input seeds (0 stands for
// the reference input).
type jobPool struct {
	programs []string
	seeds    [][]int64
}

type serveSetup struct {
	pool    jobPool
	srv     *server.Server
	httpSrv *http.Server
	base    string
	served  chan error
}

func setupServe(cfg config, plan servePlan, tr *tracer, n int) (*serveSetup, error) {
	s := &serveSetup{}
	for _, name := range plan.programs {
		p, err := compileProgram(tr, name)
		if err != nil {
			return nil, err
		}
		var ins []sized
		tr.do("inputs.generate", func() {
			ins, err = typicalInputs(p, workloadRNG(cfg.seed, "serve/"+name), plan.inputs, inputOversample)
		})
		if err != nil {
			return nil, err
		}
		seeds := []int64{0}
		for _, in := range ins {
			seeds = append(seeds, in.seed)
		}
		s.pool.programs = append(s.pool.programs, name)
		s.pool.seeds = append(s.pool.seeds, seeds)
	}
	var err error
	tr.do("server.start", func() {
		s.srv, err = server.New(server.Options{StoreDir: filepath.Join(cfg.work, fmt.Sprintf("store-%d", n)),
			Workers: workers()})
		if err != nil {
			return
		}
		var ln net.Listener
		ln, err = net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			return
		}
		s.base = "http://" + ln.Addr().String()
		s.httpSrv = &http.Server{Handler: s.srv.Handler()}
		s.served = make(chan error, 1)
		go func() { s.served <- s.httpSrv.Serve(ln) }()
	})
	return s, err
}

// stop shuts the HTTP server down and waits for its Serve loop.
func (s *serveSetup) stop() error {
	if s.httpSrv == nil {
		return nil
	}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	err := s.httpSrv.Shutdown(ctx)
	if serr := <-s.served; !errors.Is(serr, http.ErrServerClosed) && err == nil {
		err = serr
	}
	return err
}

// specGen draws the seeded job stream shared by the clients. The stream
// is deterministic; which client sends which spec depends on timing.
type specGen struct {
	mu    sync.Mutex
	rng   *rand.Rand
	plan  servePlan
	pool  jobPool
	specs []server.JobSpec
}

func (g *specGen) next() (int, server.JobSpec) {
	g.mu.Lock()
	defer g.mu.Unlock()
	var spec server.JobSpec
	if len(g.specs) > 0 && g.rng.Float64() < g.plan.dupFrac {
		spec = g.specs[g.rng.Intn(len(g.specs))]
	} else {
		i := g.rng.Intn(len(g.pool.programs))
		spec = server.JobSpec{Bench: g.pool.programs[i], Input: "ref",
			Trials: g.plan.trials[0] + g.rng.Intn(g.plan.trials[1]-g.plan.trials[0]+1),
			Seed:   1 + g.rng.Int63n(1<<30)}
		if s := g.pool.seeds[i][g.rng.Intn(len(g.pool.seeds[i]))]; s != 0 {
			spec.Input, spec.InputSeed = "random", s
		}
	}
	spec.Tenant = tenants[g.rng.Intn(len(tenants))]
	g.specs = append(g.specs, spec)
	return len(g.specs) - 1, spec
}

// jobRun is one client-side job: submission to fetched result.
type jobRun struct {
	index   int
	spec    server.JobSpec
	id      string
	deduped bool
	state   string
	body    []byte
	latency float64
	traced  bool
}

func runServe(cfg config) (*outcome, error) {
	plan := servePlanFor(cfg)
	var tr *tracer
	if cfg.trace {
		tr = newTracer(fmt.Sprintf("serve-seed%d", cfg.seed))
	}
	var setups []*serveSetup
	s, setupS, err := repeatSetup(setupRepeats, tr, func(tr *tracer) (*serveSetup, error) {
		s, err := setupServe(cfg, plan, tr, len(setups))
		if s != nil {
			setups = append(setups, s)
		}
		return s, err
	})
	defer func() {
		for _, s := range setups {
			s.stop()
		}
	}()
	if err != nil {
		return nil, err
	}
	for _, old := range setups[:len(setups)-1] {
		if err := old.stop(); err != nil {
			return nil, fmt.Errorf("stop set-up server: %w", err)
		}
	}
	setups = setups[len(setups)-1:]

	o := &outcome{setup: setupS}
	in := newDigest()
	for i, name := range s.pool.programs {
		in.add("%s %v", name, s.pool.seeds[i])
	}
	gen := &specGen{rng: workloadRNG(cfg.seed, "serve/jobs"), plan: plan, pool: s.pool}

	var (
		mu   sync.Mutex
		jobs []jobRun
		// atHalf holds the server's counters when tracing began.
		atHalf   server.StatsResponse
		halfErr  error
		halfOnce sync.Once
		wg       sync.WaitGroup
		start    = time.Now()
		half     = start.Add(cfg.budget / 2)
		stop     = start.Add(cfg.budget)
	)
	for c := 0; c < plan.clients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			cl := server.NewClient(s.base)
			for {
				mu.Lock()
				done := len(jobs) >= plan.minJobs && time.Now().After(stop)
				mu.Unlock()
				if done {
					return
				}
				var jt *tracer
				traced := cfg.trace && time.Now().After(half)
				if traced {
					jt = tr
					// Store counters are cumulative: keep them as they
					// stood when tracing began.
					halfOnce.Do(func() { halfErr = getJSON(s.base+"/v1/stats", &atHalf) })
				}
				i, spec := gen.next()
				j := runJob(o, &mu, jt, cl, spec)
				j.index, j.traced = i, traced
				mu.Lock()
				jobs = append(jobs, j)
				mu.Unlock()
			}
		}()
	}
	wg.Wait()
	elapsed := time.Since(start).Seconds()

	var lat, untracedLat, tracedLat []float64
	bodies := map[string][]byte{}
	for _, j := range jobs {
		lat = append(lat, j.latency)
		if j.traced {
			tracedLat = append(tracedLat, j.latency)
		} else {
			untracedLat = append(untracedLat, j.latency)
		}
		if j.state != server.StateDone {
			o.failed++
			o.check(false, "job %d (%s) ended %s", j.index, j.spec.Bench, j.state)
			continue
		}
		if prev, ok := bodies[j.id]; ok {
			o.check(bytes.Equal(prev, j.body), "job %s: duplicate submissions returned different results", j.id[:12])
		}
		bodies[j.id] = j.body
	}
	checkSampledJob(o, cfg, plan, gen, jobs)

	gen.mu.Lock()
	for _, spec := range gen.specs[:min(plan.sampleOf, len(gen.specs))] {
		in.add("%+v", spec)
	}
	gen.mu.Unlock()
	o.inputs = in.sum()

	o.latency = median(lat)
	o.throughput = float64(len(jobs)) / elapsed
	p90 := quantile(lat, 0.9)
	o.named = []metric{
		{"setup_s", "s", o.setup},
		{"jobs_per_s", "1/s", o.throughput},
		{"job_p50_s", "s", o.latency},
		{"job_p90_s", "s", p90},
		{"jobs", "count", float64(len(jobs))},
	}
	if cfg.trace {
		var st server.StatsResponse
		if err := getJSON(s.base+"/v1/stats", &st); err != nil || halfErr != nil {
			return nil, fmt.Errorf("stats: %v, %v", halfErr, err)
		}
		tr.add("pipeline.runs", float64(st.Store.Runs-atHalf.Store.Runs))
		tr.add("pipeline.disk_hits", float64(st.Store.DiskHits-atHalf.Store.DiskHits))
		tr.add("pipeline.disk_writes", float64(st.Store.DiskWrites-atHalf.Store.DiskWrites))
		tr.rounds("job", len(tracedLat))
		o.layers = map[string]float64{
			"e2e.job_p90_s":       p90,
			"trace.overhead_frac": median(tracedLat)/median(untracedLat) - 1,
		}
		if err := finishTrace(cfg, tr, o, "job"); err != nil {
			return nil, err
		}
	}
	return o, nil
}

// runJob submits one spec, waits for the job and fetches its result. A
// refused submission (HTTP 429) is a failed attempt; the client retries
// it as a new attempt.
func runJob(o *outcome, mu *sync.Mutex, tr *tracer, cl *server.Client, spec server.JobSpec) jobRun {
	j := jobRun{spec: spec}
	root := tr.start("job", 0)
	defer tr.end(root)
	jt := tr.under(root)
	t0 := time.Now()
	count := func(failed bool) {
		mu.Lock()
		o.attempted++
		if failed {
			o.failed++
		}
		mu.Unlock()
	}
	for {
		var resp server.SubmitResponse
		var err error
		jt.do("server.submit", func() { resp, err = cl.Submit(spec) })
		jt.add("server.submits", 1)
		if err != nil && strings.Contains(err.Error(), "HTTP 429") {
			count(true)
			jt.add("server.rejects", 1)
			time.Sleep(20 * time.Millisecond)
			continue
		}
		if err != nil {
			count(true)
			j.state = "submit error: " + err.Error()
			return j
		}
		j.id, j.deduped = resp.ID, resp.Deduped
		break
	}
	if j.deduped {
		jt.add("server.deduped", 1)
	}
	var st server.JobStatus
	var err error
	jt.do("server.wait", func() { st, err = cl.Wait(j.id) })
	if err != nil {
		count(true)
		j.state = "wait error: " + err.Error()
		return j
	}
	if !j.deduped {
		jt.add("server.shards", float64(st.Shards.Total))
	}
	j.state = st.State
	if st.State == server.StateDone {
		jt.do("server.result", func() { j.body, err = cl.Result(j.id) })
		if err != nil {
			j.state = "result error: " + err.Error()
		}
	}
	j.latency = time.Since(t0).Seconds()
	count(j.state != server.StateDone)
	return j
}

// checkSampledJob compares one seeded job's result document with the
// one a direct in-process sectional campaign of the same spec encodes.
func checkSampledJob(o *outcome, cfg config, plan servePlan, gen *specGen, jobs []jobRun) {
	pick := workloadRNG(cfg.seed, "serve/sample").Intn(plan.sampleOf)
	for _, j := range jobs {
		if j.index != pick {
			continue
		}
		if j.state != server.StateDone {
			return // already reported
		}
		prog, err := core.FromBenchmark(j.spec.Bench)
		if err != nil {
			o.check(false, "sampled job: %v", err)
			return
		}
		in := prog.Reference
		if j.spec.Input == "random" {
			in = prog.RandomInput(rand.New(rand.NewSource(j.spec.InputSeed)))
		}
		res, profiles, err := prog.InjectionCampaignSectional(in, j.spec.Trials, j.spec.Seed, nil, nil, nil, nil)
		if err != nil {
			o.check(false, "sampled job: direct campaign: %v", err)
			return
		}
		want := server.EncodeResult(server.BuildResult(j.spec.Bench, prog.Spec.String(in),
			j.spec.Seed, j.spec.Model, res, profiles))
		o.check(bytes.Equal(want, j.body), "sampled job %d (%s): server result differs from the direct campaign", j.index, j.spec.Bench)
		o.digest = newDigestOf(want)
		return
	}
	o.check(false, "sampled job %d did not run", pick)
}

// getJSON fetches a JSON document.
func getJSON(url string, out any) error {
	resp, err := http.Get(url)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("GET %s: %s", url, resp.Status)
	}
	return json.NewDecoder(resp.Body).Decode(out)
}

func newDigestOf(b []byte) string {
	d := newDigest()
	d.add("%s", b)
	return d.sum()
}
