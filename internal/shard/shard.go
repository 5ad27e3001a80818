// Package shard partitions a compiled trace's dependency graph into
// replica-isolated components for parallel replay.
//
// A component is a dependency closure: the union-find closure of
// actions over (a) traced-thread membership, (b) every dependency edge
// of the graph being replayed — the synthetic program_seq and temporal
// chains included, (c) every resource's full action series, and (d) the
// canonical path names an action resolves, whether or not the call
// succeeded. Two actions in different components therefore share no
// file-system state and no ordering constraint: no file, no directory
// entry, no descriptor, no metadata block, no edge. Each component can
// replay on its own full-snapshot replica of the target system, on its
// own kernel, and observe exactly the state and timing it would have
// observed on a shared system. A plan never has cross-component edges,
// so a graph whose chains connect everything (temporal, program_seq)
// partitions into one component and replays serially.
package shard

import (
	gopath "path"

	"rootreplay/internal/core"
)

// Plan is a partition of a graph's actions into replica-isolated
// components.
type Plan struct {
	// N is the number of actions partitioned.
	N int
	// Components holds each component's action indices in trace order.
	// Components are ordered by their smallest action index.
	Components [][]int32
	// CompOf maps each action to its component index.
	CompOf []int32
}

// Stats summarizes a plan for reporting.
type Stats struct {
	Components int
	// Largest is the action count of the biggest component.
	Largest int
}

// Stats computes summary counts.
func (p *Plan) Stats() Stats {
	st := Stats{Components: len(p.Components)}
	for _, c := range p.Components {
		if len(c) > st.Largest {
			st.Largest = len(c)
		}
	}
	return st
}

// uf is a union-find over action indices (path halving, union by size).
type uf struct {
	parent []int32
	size   []int32
}

func newUF(n int) *uf {
	u := &uf{parent: make([]int32, n), size: make([]int32, n)}
	for i := range u.parent {
		u.parent[i] = int32(i)
		u.size[i] = 1
	}
	return u
}

func (u *uf) find(x int32) int32 {
	for u.parent[x] != x {
		u.parent[x] = u.parent[u.parent[x]] // path halving
		x = u.parent[x]
	}
	return x
}

func (u *uf) union(a, b int32) {
	ra, rb := u.find(a), u.find(b)
	if ra == rb {
		return
	}
	if u.size[ra] < u.size[rb] {
		ra, rb = rb, ra
	}
	u.parent[rb] = ra
	u.size[ra] += u.size[rb]
}

// Partition computes the dependency-closure partition of the analysis
// under the given dependency graph. The graph must be one built over
// the same analysis (the ARTC graph for any mode set, the temporal
// graph, or the unconstrained graph).
func Partition(an *core.Analysis, g *core.Graph) *Plan {
	n := len(an.Actions)
	u := newUF(n)

	// (a) Thread membership: a traced thread replays as one simulated
	// thread, so all its actions share a component.
	lastOfTID := make(map[int]int32)
	for i := range an.Actions {
		tid := an.Actions[i].Rec.TID
		if prev, ok := lastOfTID[tid]; ok {
			u.union(prev, int32(i))
		}
		lastOfTID[tid] = int32(i)
	}

	// (b) Dependency edges, stateful or synthetic: an edge between two
	// components would need its endpoints' clocks exchanged.
	for ei := range g.Edges {
		e := &g.Edges[ei]
		u.union(int32(e.From), int32(e.To))
	}

	// (c) Resource series: any two actions touching the same resource —
	// same file, path generation, descriptor, or AIOCB — share state and
	// therefore a component, even in modes whose graph drops the edge.
	unionSeries := func(r core.ResourceID, series []int) {
		if r.Kind == core.KProgram || len(series) < 2 {
			return
		}
		first := int32(series[0])
		for _, a := range series[1:] {
			u.union(first, int32(a))
		}
	}
	if an.Resources != nil {
		for k, r := range an.Resources {
			unionSeries(r, an.SeriesList[k])
		}
	} else {
		for r, series := range an.Series {
			unionSeries(r, series)
		}
	}

	// (d) Canonical path names, successful or not. A failed call carries
	// no touches, but its outcome (ENOENT vs EEXIST vs success) depends
	// on whether the name — or its parent directory — exists when it
	// runs, so it must replay next to every action that can affect that
	// name. Uniting on the name (and its parent) over-approximates
	// safely; for successful calls the path resources of rule (c) make
	// most of these unions redundant.
	byName := make(map[string]int32)
	uniteName := func(name string, act int32) {
		if name == "" || name == "/" {
			return
		}
		if prev, ok := byName[name]; ok {
			u.union(prev, act)
		} else {
			byName[name] = act
		}
	}
	for i := range an.Actions {
		act := &an.Actions[i]
		ai := int32(i)
		if p := act.CanonPath; p != "" && act.Rec.Call != "symlink" {
			uniteName(p, ai)
			uniteName(gopath.Dir(p), ai)
		}
		if p := act.CanonPath2; p != "" {
			uniteName(p, ai)
			uniteName(gopath.Dir(p), ai)
		}
		// A failed call on a then-valid descriptor is remapped through
		// its hint resource; keep it with that descriptor's series.
		if act.FDHint != nil {
			if series, ok := an.Series[*act.FDHint]; ok && len(series) > 0 {
				u.union(int32(series[0]), ai)
			}
		}
	}

	// Number components by smallest member (== first root encountered in
	// trace order) and gather members in trace order.
	compOf := make([]int32, n)
	rootComp := make(map[int32]int32)
	var sizes []int32
	for i := 0; i < n; i++ {
		r := u.find(int32(i))
		c, ok := rootComp[r]
		if !ok {
			c = int32(len(sizes))
			rootComp[r] = c
			sizes = append(sizes, 0)
		}
		compOf[i] = c
		sizes[c]++
	}
	components := make([][]int32, len(sizes))
	for c, sz := range sizes {
		components[c] = make([]int32, 0, sz)
	}
	for i := 0; i < n; i++ {
		c := compOf[i]
		components[c] = append(components[c], int32(i))
	}
	return &Plan{N: n, Components: components, CompOf: compOf}
}
