package analysis_test

import (
	"strings"
	"testing"

	"repro/internal/analysis"
)

// loadModule loads every package of the module as one program, with a
// floor on the package count: a collapsing count would mean the loader
// silently stopped seeing the tree; fail loudly instead of
// green-lighting nothing.
func loadModule(tb testing.TB) []*analysis.Package {
	tb.Helper()
	loader, err := analysis.NewLoader(".")
	if err != nil {
		tb.Fatal(err)
	}
	pkgs, err := loader.Load("./...")
	if err != nil {
		tb.Fatal(err)
	}
	if len(pkgs) < 25 {
		tb.Fatalf("loaded only %d packages; loader lost sight of the module", len(pkgs))
	}
	return pkgs
}

// TestRepositoryIsLintClean self-hosts the linter: the whole module,
// analyzed as one program (so call chains cross package boundaries),
// must pass every analyzer, forever. A new finding either gets fixed or
// gets an explicit //lint:ignore with a reason — never merged silently.
func TestRepositoryIsLintClean(t *testing.T) {
	if testing.Short() {
		t.Skip("full-module type-check is not short")
	}
	prog := analysis.NewProgram(loadModule(t))
	for _, d := range prog.Run(analysis.All(), 0) {
		t.Errorf("%s", d)
	}
}

// TestShardSafeSeedAnnotations pins the shardsafe contract to the hot
// paths the sharded kernel will run: the seed annotations must stay on
// the scheduler ticks, the crossbar step, and the VOQ / flow-control /
// cell-pool mutators. TestRepositoryIsLintClean proves they hold; this
// test proves they exist — an annotation deleted to silence a finding
// fails here instead of vanishing.
func TestShardSafeSeedAnnotations(t *testing.T) {
	if testing.Short() {
		t.Skip("full-module type-check is not short")
	}
	prog := analysis.NewProgram(loadModule(t))
	annotated := map[string]bool{}
	for _, fn := range prog.ShardSafeFuncs() {
		annotated[fn] = true
	}
	want := []string{
		"sched.ISLIP.TickInto",
		"sched.PIM.TickInto",
		"sched.LQF.TickInto",
		"sched.FLPPR.TickInto",
		"sched.PipelinedISLIP.TickInto",
		"crossbar.Switch.Step",
		"voq.VOQSet.Push",
		"voq.VOQSet.Pop",
		"voq.Egress.Receive",
		"voq.Egress.Drain",
		"fc.Credits.Consume",
		"packet.Allocator.New",
		"packet.Allocator.Free",
		// Cell retirement and queueing run on the shard path: the
		// order check of delivered cells and the cell-linked queue
		// under every VOQ and egress adapter.
		"packet.OrderChecker.Deliver",
		"packet.Queue.Push",
		"packet.Queue.Pop",
		// The sharded fabric kernel: the whole per-slot path a shard
		// executes concurrently with its siblings must stay provably
		// free of shared mutable state.
		"fabric.node.push",
		"fabric.node.arbitrate",
		"fabric.shard.stepSlot",
		// The bitboard/active-set fast path: idle-skip hooks on every
		// scheduler, the dense-row primitives, the incremental VOQ and
		// flow-control transition signals, and the node/shard
		// bookkeeping that maintains demand bits and wake state.
		"sched.ISLIP.SkipIdle",
		"sched.PIM.SkipIdle",
		"sched.LQF.SkipIdle",
		"sched.FLPPR.SkipIdle",
		"sched.PipelinedISLIP.SkipIdle",
		"bitrow.Set",
		"bitrow.Clear",
		"bitrow.Has",
		"bitrow.SetTo",
		"bitrow.ZeroAll",
		"bitrow.NextSet",
		"voq.VOQSet.Backlog",
		"voq.VOQSet.Commit",
		"voq.VOQSet.Uncommit",
		"voq.VOQSet.syncOcc",
		"fc.Credits.ConsumeEmptied",
		"fc.Credits.LandRefilled",
		"packet.flowTable.slot",
		// The switch core both engines share: its mutators maintain the
		// demand columns, depth histogram and resident count.
		"voq.Bank.sync",
		"voq.Bank.Push",
		"voq.Bank.Pop",
		"voq.Bank.Commit",
		"voq.Bank.Uncommit",
		"voq.Bank.DemandRowBits",
		"voq.Bank.DemandColBits",
		"fabric.node.landCredit",
		"fabric.nodeBoard.Commit",
		"fabric.nodeBoard.DemandRowBits",
		"fabric.nodeBoard.DemandColBits",
		"fabric.shard.wake",
	}
	for _, w := range want {
		if !annotated[w] {
			t.Errorf("expected //osmosis:shardsafe on %s; annotated set: %s",
				w, strings.Join(prog.ShardSafeFuncs(), ", "))
		}
	}
}

// BenchmarkLintTree measures the full pipeline over the module: load,
// type-check, call-graph construction, fact propagation, and every
// analyzer — the wall-clock cost `make verify` pays.
func BenchmarkLintTree(b *testing.B) {
	for i := 0; i < b.N; i++ {
		pkgs := loadModule(b)
		prog := analysis.NewProgram(pkgs)
		if diags := prog.Run(analysis.All(), 0); len(diags) != 0 {
			b.Fatalf("tree not clean: %d findings", len(diags))
		}
	}
}
