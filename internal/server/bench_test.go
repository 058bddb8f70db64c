package server

import (
	"fmt"
	"os"
	"path/filepath"
	"testing"
)

// benchSpec is the campaign every server benchmark runs: small enough
// to iterate, large enough to span several shards.
func benchSpec(seed int64) JobSpec {
	return JobSpec{Bench: "fft", Trials: 200, Seed: seed}
}

// BenchmarkServerCampaign measures the full scheduler path — submit,
// shard planning, worker-pool dispatch through the artifact store,
// composition — on a COLD store every iteration (ns/trial of the
// service itself, the overhead CI's benchdiff gate tracks).
func BenchmarkServerCampaign(b *testing.B) {
	for i := 0; i < b.N; i++ {
		s := newServer(b, Options{StoreDir: b.TempDir(), Workers: 2})
		j, _, err := s.Submit(benchSpec(int64(i + 1)))
		if err != nil {
			b.Fatal(err)
		}
		<-j.Done()
		if j.State() != StateDone {
			b.Fatalf("job ended %s", j.State())
		}
	}
}

// BenchmarkServerCampaignWarm measures the shard-warm path: every
// iteration resubmits a spec whose shards are already committed, with
// the composed result document evicted so the scheduler re-composes
// from shard artifacts alone (the resume path's cost model). The
// reported dedup_hit_rate is the fraction of shard lookups served
// without injecting a fault — 1.0 when key hygiene holds.
func BenchmarkServerCampaignWarm(b *testing.B) {
	dir := b.TempDir()
	warm := newServer(b, Options{StoreDir: dir, Workers: 2})
	j, _, err := warm.Submit(benchSpec(1))
	if err != nil {
		b.Fatal(err)
	}
	<-j.Done()
	// Evicting only the composed document (not the job record or shard
	// artifacts) forces each iteration through plan + per-shard store
	// lookup + compose rather than the instant result join.
	resultPath := filepath.Join(warm.store.Dir(), kindJobResult, j.ID+".json")
	b.ResetTimer()
	var hits, lookups int64
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		if err := os.Remove(resultPath); err != nil {
			b.Fatal(err)
		}
		b.StartTimer()
		s := newServer(b, Options{StoreDir: dir, Workers: 2})
		j, _, err := s.Submit(benchSpec(1))
		if err != nil {
			b.Fatal(err)
		}
		<-j.Done()
		if j.State() != StateDone {
			b.Fatalf("job ended %s", j.State())
		}
		st := s.StoreStats()
		hits += st.DiskHits
		lookups += st.DiskHits + st.Runs
	}
	b.StopTimer()
	if lookups > 0 {
		b.ReportMetric(float64(hits)/float64(lookups), "dedup_hit_rate")
	}
}

// BenchmarkDirectCampaign is the baseline the server overhead is
// measured against: the same sectional campaign run inline, no store,
// no HTTP, no scheduler.
func BenchmarkDirectCampaign(b *testing.B) {
	for i := 0; i < b.N; i++ {
		spec := benchSpec(int64(i + 1))
		r, err := resolve(spec)
		if err != nil {
			b.Fatal(err)
		}
		if _, _, err := r.prog.InjectionCampaignSectional(
			r.in, spec.Trials, spec.Seed, nil, nil, nil, nil); err != nil {
			b.Fatal(err)
		}
	}
}

var benchSink string

// BenchmarkJobKey measures identity derivation alone (it sits on the
// submit hot path and runs once per request, dedup hits included).
func BenchmarkJobKey(b *testing.B) {
	r, err := resolve(benchSpec(1))
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		benchSink = jobKey(r).Hex()
	}
	if benchSink == "" {
		b.Fatal(fmt.Errorf("empty key"))
	}
}
