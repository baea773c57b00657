package analysis

import (
	"fmt"
	"go/token"
	"go/types"
	"path/filepath"
	"strings"
)

// factKind enumerates the per-function facts the propagator tracks.
type factKind int

const (
	// factNondet: the function's body contains a determinism violation
	// (wall-clock read, global math/rand, map iteration).
	factNondet factKind = iota
	// factAlloc: the function's body contains a construct that may
	// heap-allocate per call (make, append, map literal, function
	// literal, a call into package fmt).
	factAlloc
	// factGlobalWrite: the function's body writes package-level state.
	factGlobalWrite
	numFactKinds
)

// suppressionAnalyzer maps each fact kind to the analyzer name its
// //lint:ignore directives use: a justified base violation is dropped
// before propagation, so the justification covers every caller too.
var suppressionAnalyzer = [numFactKinds]string{
	factNondet:      "determinism",
	factAlloc:       "hotpath",
	factGlobalWrite: "shardsafe",
}

// baseFact is one direct violation inside a function body.
type baseFact struct {
	pos token.Pos
	msg string
}

// factInfo records how a node acquired a fact: base is set at the
// origin, via is the call edge through which an inherited fact arrived
// (the first hop of a shortest witness chain).
type factInfo struct {
	base *baseFact
	via  *cgEdge
}

// collectBaseFacts scans every node's body once, recording base facts of
// all kinds (filtered through the program suppressor) plus the
// shared-state writer index (unfiltered — the inventory reflects
// reality, not annotations).
func (p *Program) collectBaseFacts() {
	for k := factKind(0); k < numFactKinds; k++ {
		p.baseFacts[k] = map[*cgNode][]baseFact{}
	}
	record := func(n *cgNode, kind factKind, pos token.Pos, msg string) {
		if p.sup.suppressesAt(n.pkg.Fset, suppressionAnalyzer[kind], pos) {
			return
		}
		p.baseFacts[kind][n] = append(p.baseFacts[kind][n], baseFact{pos: pos, msg: msg})
	}
	for _, n := range p.graph.list {
		if n.pkg.Root {
			continue
		}
		node := n
		scanNondet(node.pkg.TypesInfo, node.decl, func(pos token.Pos, msg string) {
			record(node, factNondet, pos, msg)
		})
		scanAllocs(node.pkg.TypesInfo, node.decl, func(pos token.Pos, msg string) {
			record(node, factAlloc, pos, msg)
		})
		scanGlobalWrites(node, func(pos token.Pos, msg string, v *types.Var) {
			if v != nil {
				set := p.writers[v]
				if set == nil {
					set = map[string]bool{}
					p.writers[v] = set
				}
				set[nodeName(node)] = true
			}
			record(node, factGlobalWrite, pos, msg)
		})
	}
}

// propagate computes which nodes reach a base fact through call edges.
// transmit(n) reports whether n's fact may flow out to its callers;
// annotated or directly-checked functions return false, so a violation
// is reported exactly once, at the nearest checked frame. The BFS runs
// from origin nodes in deterministic graph order, so every node's
// witness (its via edge) is both shortest and reproducible.
func propagate(g *callGraph, base map[*cgNode][]baseFact, transmit func(*cgNode) bool) map[*cgNode]*factInfo {
	facts := map[*cgNode]*factInfo{}
	var queue []*cgNode
	for _, n := range g.list {
		if bs := base[n]; len(bs) > 0 {
			b := bs[0]
			facts[n] = &factInfo{base: &b}
			queue = append(queue, n)
		}
	}
	for len(queue) > 0 {
		n := queue[0]
		queue = queue[1:]
		if !transmit(n) {
			continue
		}
		for _, e := range n.callers {
			c := e.caller
			if facts[c] != nil {
				continue
			}
			facts[c] = &factInfo{via: e}
			queue = append(queue, c)
		}
	}
	return facts
}

// chain reconstructs the witness call chain for a node holding an
// inherited fact of the given kind: the structured frames (for -json),
// the "a → b → c" text, and the base fact at the end of the chain.
func (p *Program) chain(kind factKind, root *cgNode) (frames []Frame, text string, base *baseFact) {
	facts := p.facts[kind]
	var names []string
	n := root
	for {
		fi := facts[n]
		if fi == nil {
			break // defensive: chains always end in a base fact
		}
		if fi.base != nil {
			pos := n.pkg.Fset.Position(fi.base.pos)
			frames = append(frames, Frame{Func: nodeName(n), File: pos.Filename, Line: pos.Line})
			names = append(names, nodeName(n))
			return frames, strings.Join(names, " → "), fi.base
		}
		pos := n.pkg.Fset.Position(fi.via.pos)
		frames = append(frames, Frame{Func: nodeName(n), File: pos.Filename, Line: pos.Line})
		names = append(names, nodeName(n))
		n = fi.via.callee
	}
	return frames, strings.Join(names, " → "), nil
}

// shortPos formats a position as file.go:line for inline chain text.
func shortPos(fset *token.FileSet, pos token.Pos) string {
	pp := fset.Position(pos)
	return fmt.Sprintf("%s:%d", filepath.Base(pp.Filename), pp.Line)
}

// pkgNodes returns the program's graph nodes belonging to the package,
// in declaration order.
func (p *Program) pkgNodes(pkgPath string) []*cgNode {
	var out []*cgNode
	for _, n := range p.graph.list {
		if n.pkg.Path == pkgPath {
			out = append(out, n)
		}
	}
	return out
}
