package repro

// Differential test between the two switch engines. A one-level XGFT
// (Hosts = Radix = N) is a single switch with no inter-switch links,
// credits or link delay, so where the features of crossbar.Switch and
// fabric.Fabric overlap the two must produce the same run: the same
// cells offered and delivered, the same VOQ high-water mark and every
// latency sample equal, in delivery order.

import (
	"fmt"
	"strings"
	"testing"

	"repro/internal/ckpt"
	"repro/internal/crossbar"
	"repro/internal/fabric"
	"repro/internal/packet"
	"repro/internal/sched"
	"repro/internal/stats"
	"repro/internal/traffic"
	"repro/internal/units"
)

// latencySamples reads a collector's observations back, in insertion
// order, from its checkpoint section.
func latencySamples(t *testing.T, s *stats.LatencySample) []units.Time {
	t.Helper()
	var buf strings.Builder
	e := ckpt.NewEncoder(&buf)
	s.SaveState(e)
	if err := e.Close(); err != nil {
		t.Fatal(err)
	}
	d, err := ckpt.NewDecoder(strings.NewReader(buf.String()))
	if err != nil {
		t.Fatal(err)
	}
	var run stats.Running
	if err := d.Begin("latency"); err != nil {
		t.Fatal(err)
	}
	if err := run.LoadState(d); err != nil {
		t.Fatal(err)
	}
	rec := d.Record("samples")
	n := rec.IntAsInt()
	if err := rec.Done(); err != nil {
		t.Fatal(err)
	}
	var out []units.Time
	for len(out) < n {
		r := d.Record("s")
		for i := r.Len(); i > 0; i-- {
			out = append(out, units.Time(r.Int()))
		}
		if err := r.Done(); err != nil {
			t.Fatal(err)
		}
	}
	return out
}

func TestCrossbarMatchesOneSwitchFabric(t *testing.T) {
	const n = 16
	const warmup, measure = 200, 1500
	scheds := []struct {
		name string
		mk   func() sched.Scheduler
	}{
		{"flppr", func() sched.Scheduler { return sched.NewFLPPR(n, 0) }},
		{"islip", func() sched.Scheduler { return sched.NewISLIP(n, 0) }},
		{"pim", func() sched.Scheduler { return sched.NewPIM(n, 0, 5) }},
		{"lqf", func() sched.Scheduler { return sched.NewLQF(n) }},
		{"pipelined", func() sched.Scheduler { return sched.NewPipelinedISLIP(n, 0) }},
	}
	for _, sc := range scheds {
		for _, r := range []int{1, 2} {
			for _, kind := range []traffic.Kind{traffic.KindUniform, traffic.KindBimodal} {
				for _, load := range []float64{0.3, 0.95} {
					sc, r, kind, load := sc, r, kind, load
					t.Run(fmt.Sprintf("%s/r%d/%v/%.2f", sc.name, r, kind, load), func(t *testing.T) {
						tcfg := traffic.Config{Kind: kind, N: n, Load: load, Seed: 41}
						gens, err := traffic.Build(tcfg)
						if err != nil {
							t.Fatal(err)
						}
						sw, err := crossbar.New(crossbar.Config{N: n, Receivers: r, Scheduler: sc.mk()})
						if err != nil {
							t.Fatal(err)
						}
						xm, err := sw.Run(gens, warmup, measure)
						if err != nil {
							t.Fatal(err)
						}
						if gens, err = traffic.Build(tcfg); err != nil {
							t.Fatal(err)
						}
						f, err := fabric.New(fabric.Config{Hosts: n, Radix: n, Receivers: r, NewScheduler: sc.mk})
						if err != nil {
							t.Fatal(err)
						}
						fm, err := f.Run(gens, warmup, measure)
						if err != nil {
							t.Fatal(err)
						}
						if xm.Offered != fm.Offered || xm.Delivered != fm.Delivered {
							t.Fatalf("crossbar offered/delivered %d/%d, fabric %d/%d",
								xm.Offered, xm.Delivered, fm.Offered, fm.Delivered)
						}
						if xm.MaxVOQDepth != fm.MaxVOQDepth {
							t.Errorf("MaxVOQDepth: crossbar %d, fabric %d", xm.MaxVOQDepth, fm.MaxVOQDepth)
						}
						if xm.OrderViolations != fm.OrderViolations {
							t.Errorf("OrderViolations: crossbar %d, fabric %d", xm.OrderViolations, fm.OrderViolations)
						}
						if len(fm.HopHistogram) != 1 || fm.HopHistogram[1] != fm.Delivered {
							t.Errorf("one-switch fabric hop histogram %v, want {1: %d}", fm.HopHistogram, fm.Delivered)
						}
						xs := latencySamples(t, &xm.Latency)
						fs := latencySamples(t, &fm.LatencySlots)
						if len(xs) != len(fs) {
							t.Fatalf("%d crossbar latency samples, %d fabric", len(xs), len(fs))
						}
						for i := range xs {
							if got, want := xs[i]/xm.CycleTime, fs[i]; got != want || xs[i]%xm.CycleTime != 0 {
								t.Fatalf("latency sample %d: crossbar %v (%d slots), fabric %d slots", i, xs[i], got, want)
							}
						}
					})
				}
			}
		}
	}
}

// rogueScheduler grants input 0 to output 1 every slot, whether or not
// there is a cell to send — the bug the engines' empty-VOQ check exists
// to catch. Both engines hand it a matching already sized to the ports.
type rogueScheduler struct{}

func (rogueScheduler) Name() string      { return "rogue" }
func (rogueScheduler) GrantLatency() int { return 1 }
func (rogueScheduler) SelfCommits() bool { return false }
func (rogueScheduler) Reset()            {}
func (rogueScheduler) TickInto(_ uint64, _ sched.Board, m *sched.Matching) {
	m.Reset()
	m.Out[0] = 1
}

// TestGrantOnEmptyVOQPanics: a grant on an edge with no demand is a
// scheduler or bookkeeping bug, and both engines stop on it instead of
// skipping the edge.
func TestGrantOnEmptyVOQPanics(t *testing.T) {
	const n = 4
	// mustPanic runs one slot and expects the engine's panic message.
	mustPanic := func(t *testing.T, engine string, step func()) {
		t.Helper()
		defer func() {
			msg, _ := recover().(string)
			if !strings.HasPrefix(msg, engine+": ") || !strings.Contains(msg, "granted empty VOQ in=0 out=1 slot=0") {
				t.Fatalf("panic %q, want the %s empty-VOQ grant message", msg, engine)
			}
		}()
		step()
	}
	t.Run("crossbar", func(t *testing.T) {
		sw, err := crossbar.New(crossbar.Config{N: n, Receivers: 2, Scheduler: rogueScheduler{}})
		if err != nil {
			t.Fatal(err)
		}
		mustPanic(t, "crossbar", func() { sw.Step(make([]*packet.Cell, n)) })
	})
	t.Run("fabric", func(t *testing.T) {
		f, err := fabric.New(fabric.Config{Hosts: n, Radix: n, Receivers: 2,
			NewScheduler: func() sched.Scheduler { return rogueScheduler{} }})
		if err != nil {
			t.Fatal(err)
		}
		mustPanic(t, "fabric", func() {
			if err := f.Step(); err != nil {
				t.Error(err)
			}
		})
	})
}
