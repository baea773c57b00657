package main

import (
	"encoding/json"
	"os"
	"testing"

	"repro/internal/fabric"
	"repro/internal/sched"
	"repro/internal/traffic"
)

// TestWrapperIsTransparent checks that the traced scheduler implements
// the optional interfaces exactly when the wrapped one does and forwards
// the Scheduler methods the fabric reads.
func TestWrapperIsTransparent(t *testing.T) {
	flppr := sched.NewFLPPR(8, 0)
	cases := map[string]sched.Scheduler{
		"flppr":           flppr,
		"islip":           sched.NewISLIP(8, 0),
		"pim":             sched.NewPIM(8, 0, 1),
		"lqf":             sched.NewLQF(8),
		"pipelined-islip": sched.NewPipelinedISLIP(8, 0),
		"plain":           struct{ sched.Scheduler }{flppr},
		"skip-only": struct {
			sched.Scheduler
			sched.IdleSkipper
		}{flppr, flppr},
		"codec-only": struct {
			sched.Scheduler
			sched.StateCodec
		}{flppr, flppr},
	}
	for name, s := range cases {
		w, _ := wrapScheduler(s)
		_, skip := s.(sched.IdleSkipper)
		_, wskip := w.(sched.IdleSkipper)
		_, codec := s.(sched.StateCodec)
		_, wcodec := w.(sched.StateCodec)
		if skip != wskip || codec != wcodec {
			t.Errorf("%s: IdleSkipper %v->%v, StateCodec %v->%v", name, skip, wskip, codec, wcodec)
		}
		if w.SelfCommits() != s.SelfCommits() || w.Name() != s.Name() || w.GrantLatency() != s.GrantLatency() {
			t.Errorf("%s: wrapper does not forward the Scheduler methods", name)
		}
	}
}

// TestWrappedRunsMatch runs a small XGFT at shards 1 and 2, with and
// without wrapped schedulers: every run must end on the same
// fingerprint, and ring all-reduce must let switches sleep.
func TestWrappedRunsMatch(t *testing.T) {
	for _, tc := range []struct {
		kind traffic.Kind
		load float64
	}{{traffic.KindUniform, 0.7}, {traffic.KindRingAllReduce, 0.3}} {
		var want string
		for _, shards := range []int{1, 2} {
			for _, traced := range []bool{false, true} {
				x, err := fabric.NewXGFT(64, 8, 0)
				if err != nil {
					t.Fatal(err)
				}
				cfg := fabric.Config{Network: x, Receivers: 2, LinkDelaySlots: 2, Shards: shards}
				tf := &tracedFactory{inner: func() sched.Scheduler { return sched.NewFLPPR(8, 0) }}
				if traced {
					cfg.NewScheduler = tf.build
				}
				f, err := fabric.New(cfg)
				if err != nil {
					t.Fatal(err)
				}
				gens, err := traffic.Build(traffic.Config{Kind: tc.kind, N: 64, Load: tc.load, PhaseSlots: 16, Seed: 7})
				if err != nil {
					t.Fatal(err)
				}
				sess, err := fabric.StartSession(f, gens, 100, 600)
				if err != nil {
					t.Fatal(err)
				}
				for !sess.Done() {
					if _, err := sess.Advance(50); err != nil {
						t.Fatal(err)
					}
				}
				got := sess.Metrics().Fingerprint()
				if want == "" {
					want = got
				} else if got != want {
					t.Errorf("%v shards=%d traced=%v: fingerprint\n  %s\nwant\n  %s", tc.kind, shards, traced, got, want)
				}
				if !traced {
					continue
				}
				tot := tf.totals()
				if tot.ticks == 0 || tot.matched == 0 {
					t.Errorf("%v shards=%d: wrapper saw %d ticks, %d grants", tc.kind, shards, tot.ticks, tot.matched)
				}
				if share := float64(tot.skipped) / float64(len(tf.traces)*700); tc.kind == traffic.KindRingAllReduce && share <= 0 {
					t.Errorf("ring all-reduce shards=%d: sched.sleep_share = %v, want > 0", shards, share)
				}
			}
		}
	}
}

// TestBenchmarkFileMatches keeps BENCHMARK.json's metric lists equal to
// what the program reports, and goldens.json complete.
func TestBenchmarkFileMatches(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var bench struct {
		Workloads []struct{ Name string }       `json:"workloads"`
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &bench); err != nil {
		t.Fatal(err)
	}
	e2e := (&run{setup: []float64{1}, ops: []float64{1}, region: regionStats{wall: 1, cpu: 1}}).endToEnd()
	check := func(list []struct{ Name, Unit string }, want map[string]metric) {
		if len(list) != len(want) {
			t.Errorf("BENCHMARK.json lists %d metrics, program reports %d", len(list), len(want))
		}
		for _, m := range list {
			if w, ok := want[m.Name]; !ok || w.Unit != m.Unit {
				t.Errorf("BENCHMARK.json metric %s (%s) not reported as such", m.Name, m.Unit)
			}
		}
	}
	check(bench.EndToEnd, e2e)
	layers := map[string]metric{}
	for name, unit := range layerUnits() {
		layers[name] = metric{0, unit}
	}
	check(bench.PerLayer, layers)
	if len(bench.Workloads) != len(workloads) {
		t.Errorf("BENCHMARK.json lists %d workloads, program has %d", len(bench.Workloads), len(workloads))
	}
	for i, w := range bench.Workloads {
		if i < len(workloads) && w.Name != workloads[i].name {
			t.Errorf("workload %d: BENCHMARK.json %s, program %s", i, w.Name, workloads[i].name)
		}
	}

	for _, reg := range []fabricRegime{busy} {
		if goldens.Fabric[reg.name] == "" {
			t.Errorf("goldens.json lacks %s", reg.name)
		}
	}
	sw := newSweep(DefaultSeed)
	for k := 0; k < sw.cycle(); k++ {
		if p, ckpt, _ := sw.job(k); goldens.Daemon[p.label(ckpt)] == "" {
			t.Errorf("goldens.json lacks %s", p.label(ckpt))
		}
	}
}
