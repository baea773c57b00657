package sched

import (
	"fmt"
	"strings"
)

// Names lists the arbiters Factory builds, by the name every command
// line, job spec and system configuration uses; "" selects "flppr".
var Names = []string{"flppr", "islip", "pipelined-islip", "pim", "lqf"}

// Factory resolves a scheduler name to a constructor of fresh n-port
// arbiters. param is FLPPR's sub-scheduler count K, iSLIP's and PIM's
// iteration count or the pipelined iSLIP depth (0 = log2 n; LQF ignores
// it), and seed feeds PIM's arbitration RNG. Every call of the returned
// function builds an independent scheduler in the same initial state,
// so engines that run concurrently, or rebuild themselves to restore a
// checkpoint, each take their own. Every arbiter named here implements
// StateCodec and IdleSkipper.
func Factory(name string, n, param int, seed uint64) (func() Scheduler, error) {
	switch name {
	case "", "flppr":
		return func() Scheduler { return NewFLPPR(n, param) }, nil
	case "islip":
		return func() Scheduler { return NewISLIP(n, param) }, nil
	case "pipelined-islip":
		return func() Scheduler { return NewPipelinedISLIP(n, param) }, nil
	case "pim":
		return func() Scheduler { return NewPIM(n, param, seed) }, nil
	case "lqf":
		return func() Scheduler { return NewLQF(n) }, nil
	}
	return nil, fmt.Errorf("sched: unknown scheduler %q (want %s)", name, strings.Join(Names, " | "))
}
