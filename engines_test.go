package repro

// Differential test between the two switch engines. A one-level XGFT
// (Hosts = Radix = N) is a single switch with no inter-switch links,
// credits or link delay, so where the features of crossbar.Switch and
// fabric.Fabric overlap the two must produce the same run: the same
// arbitration decision in every busy slot, the same cells offered and
// delivered, the same VOQ high-water mark, the same latency histogram
// bin for bin, and the same order-sensitive Welford fold over the
// latencies — so the same deliveries in the same order.

import (
	"fmt"
	"slices"
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

// latencyBin is one (value, count) pair of a latency histogram.
type latencyBin struct {
	v units.Time
	n uint64
}

// mustXGFT is fabric.NewXGFT for test configurations that cannot fail.
func mustXGFT(hosts, radix int) fabric.XGFT {
	x, err := fabric.NewXGFT(hosts, radix, 0)
	if err != nil {
		panic(err)
	}
	return x
}

// latencyState reads a collector's Welford record (n, mean, m2, min,
// max) and its histogram, ascending by value, back from its checkpoint
// section.
func latencyState(t *testing.T, s *stats.LatencySample) (uint64, [4]float64, []latencyBin) {
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
	if err := d.Begin("latency"); err != nil {
		t.Fatal(err)
	}
	rec := d.Record("running")
	n, moments := rec.Uint(), [4]float64{rec.Float(), rec.Float(), rec.Float(), rec.Float()}
	if err := rec.Done(); err != nil {
		t.Fatal(err)
	}
	var bins []latencyBin
	for !d.AtEnd("latency") {
		r := d.Record("bin")
		bins = append(bins, latencyBin{v: units.Time(r.Int()), n: r.Uint()})
		if err := r.Done(); err != nil {
			t.Fatal(err)
		}
	}
	return n, moments, bins
}

// pow2Cycle is a cell format whose cycle is 2^16 ps. The crossbar
// records latencies in picoseconds and the fabric in slots; with a
// power-of-two cycle every step of the Welford fold scales exactly, so
// the crossbar's moments must be the fabric's times the cycle, bit for
// bit, exactly when both folded the same latencies in the same order.
var pow2Cycle = packet.Format{CellBytes: 256, LineRate: 31.25 * units.GigabitPerSecond}

// decision is one arbitration call as the scheduler saw it: the slot, a
// digest of the board (every VOQ's demand and every egress's receiver
// count) and the matching the scheduler returned.
type decision struct {
	slot  uint64
	board uint64
	out   []int
}

// recorder wraps a scheduler and logs its busy decisions — those with
// demand on the board or an edge in the matching. Idle calls are not
// logged, so the fabric, which skips an idle switch's ticks, and the
// crossbar, which ticks every slot, log the same decisions.
type recorder struct {
	sched.Scheduler
	n   int
	log []decision
}

func (r *recorder) SkipIdle(n uint64) { r.Scheduler.(sched.IdleSkipper).SkipIdle(n) }

func (r *recorder) TickInto(slot uint64, b sched.Board, m *sched.Matching) {
	busy := false
	h := uint64(14695981039346656037) // FNV-1a offset basis
	mix := func(v int) {
		h ^= uint64(v)
		h *= 1099511628211
	}
	for in := 0; in < r.n; in++ {
		for out := 0; out < r.n; out++ {
			d := b.Demand(in, out)
			busy = busy || d > 0
			mix(d)
		}
	}
	for out := 0; out < r.n; out++ {
		mix(b.ReceiversAt(out))
	}
	r.Scheduler.TickInto(slot, b, m)
	for _, o := range m.Out {
		busy = busy || o >= 0
	}
	if busy {
		r.log = append(r.log, decision{slot: slot, board: h, out: slices.Clone(m.Out)})
	}
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
						xr := &recorder{Scheduler: sc.mk(), n: n}
						sw, err := crossbar.New(crossbar.Config{N: n, Receivers: r, Scheduler: xr, Format: pow2Cycle})
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
						var frs []*recorder
						f, err := fabric.New(fabric.Config{Network: mustXGFT(n, n), Receivers: r,
							NewScheduler: func() sched.Scheduler {
								fr := &recorder{Scheduler: sc.mk(), n: n}
								frs = append(frs, fr)
								return fr
							}})
						if err != nil {
							t.Fatal(err)
						}
						fm, err := f.Run(gens, warmup, measure)
						if err != nil {
							t.Fatal(err)
						}
						if len(frs) != 1 {
							t.Fatalf("one-switch fabric built %d schedulers", len(frs))
						}
						xl, fl := xr.log, frs[0].log
						for i := 0; i < len(xl) && i < len(fl); i++ {
							xd, fd := xl[i], fl[i]
							if xd.slot != fd.slot || xd.board != fd.board || !slices.Equal(xd.out, fd.out) {
								t.Fatalf("decision %d: crossbar slot %d board %016x grants %v, fabric slot %d board %016x grants %v",
									i, xd.slot, xd.board, xd.out, fd.slot, fd.board, fd.out)
							}
						}
						if len(xl) != len(fl) || len(xl) == 0 {
							t.Fatalf("crossbar made %d busy decisions, fabric %d", len(xl), len(fl))
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
						if xm.CycleTime != 1<<16 {
							t.Fatalf("cycle %d ps, want 2^16", xm.CycleTime)
						}
						xn, xmom, xh := latencyState(t, &xm.Latency)
						fn, fmom, fh := latencyState(t, &fm.LatencySlots)
						c := float64(xm.CycleTime)
						// mean, m2, min, max: m2 scales with the square.
						for i, scale := range []float64{c, c * c, c, c} {
							if xn != fn || xmom[i] != fmom[i]*scale {
								t.Fatalf("latency fold: crossbar n=%d %v, fabric n=%d %v scaled by the cycle", xn, xmom, fn, fmom)
							}
						}
						if len(xh) != len(fh) {
							t.Fatalf("%d distinct crossbar latencies, %d fabric", len(xh), len(fh))
						}
						for i := range xh {
							if got, want := xh[i].v/xm.CycleTime, fh[i].v; got != want || xh[i].v%xm.CycleTime != 0 || xh[i].n != fh[i].n {
								t.Fatalf("latency bin %d: crossbar %v (%d slots) x%d, fabric %d slots x%d",
									i, xh[i].v, got, xh[i].n, want, fh[i].n)
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
		f, err := fabric.New(fabric.Config{Network: mustXGFT(n, n), Receivers: 2,
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
