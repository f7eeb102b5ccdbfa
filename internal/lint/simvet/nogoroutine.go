package simvet

import (
	"go/ast"
	"go/token"
	"strings"
)

// NogoroutineAnalyzer bans raw concurrency in kernel-owned packages: go
// statements, channels, select, the sync/sync-atomic packages, and the iter
// package (iter.Pull is a coroutine switch — what the kernel itself is built
// on, and a second scheduler anywhere else). Exactly one goroutine is
// runnable at any instant under the sim kernel, so all concurrency must flow
// through sim.Proc spawns (sim.Env.Go) and the sim synchronization
// primitives (sim.WaitGroup, sim.Cond, sim.Queue); anything else
// reintroduces interleavings the event order does not pin.
var NogoroutineAnalyzer = &Analyzer{
	Name: "nogoroutine",
	Doc: "ban go statements, channels, select, sync, sync/atomic and iter " +
		"(coroutines) in kernel-owned packages (sim, netsim, cluster, " +
		"update, obs, harness): concurrency flows through sim.Proc spawns only",
	Run: runNogoroutine,
}

func runNogoroutine(p *Pass) {
	if !isKernel(p.Path) {
		return
	}
	for _, f := range p.Files {
		for _, imp := range f.Imports {
			switch path := strings.Trim(imp.Path.Value, `"`); path {
			case "sync", "sync/atomic":
				p.Reportf(imp.Pos(), "import %s in kernel package: the sim kernel is single-runnable; use sim.WaitGroup/sim.Cond, and keep counters as plain fields", path)
			case "iter":
				p.Reportf(imp.Pos(), "import iter in kernel package: an iter.Pull coroutine is a second scheduler beside the sim kernel, whose switches no event orders; spawn sim processes with sim.Env.Go")
			}
		}
		ast.Inspect(f, func(n ast.Node) bool {
			switch v := n.(type) {
			case *ast.GoStmt:
				p.Reportf(v.Pos(), "go statement in kernel package: spawn sim processes with sim.Env.Go so the scheduler owns the interleaving")
			case *ast.SendStmt:
				p.Reportf(v.Pos(), "channel send in kernel package: pass work through sim.Queue or direct calls under the one-runnable-goroutine kernel")
			case *ast.UnaryExpr:
				if v.Op == token.ARROW {
					p.Reportf(v.Pos(), "channel receive in kernel package: block on sim primitives (Queue.Get, WaitGroup.Wait), not channels")
				}
			case *ast.SelectStmt:
				p.Reportf(v.Pos(), "select in kernel package: nondeterministic case choice breaks byte-identical runs; use sim.Cond or hedged sim queues")
			case *ast.ChanType:
				p.Reportf(v.Pos(), "channel type in kernel package: kernel state must be reachable only from sim processes; use sim.Queue")
			}
			return true
		})
	}
}
