package main

import (
	"fmt"
	"math/rand"
)

// graph is one benchmark input: a digraph over named nodes (par(u, v) is
// the edge u → v) plus the node layout the serving stream draws from.
type graph struct {
	names []string
	edges [][2]int32
	// targets are nodes without children: reads and queries ask for their
	// ancestors, and writes give one a new parent drawn from pool and then
	// take a parent away. Pool nodes are never targets, so a write changes
	// only anc(_, target) and the model keeps its make-up for the whole
	// run.
	targets, pool []int32
}

func (g *graph) n() int { return len(g.names) }

// Input sizes. The README explains each choice.
const (
	wideNodes = 400
	wideEdges = 800
	// A random digraph is used only if its closure size, Example 3 firing
	// count and depth (longest shortest path, which sets the number of
	// rounds) fall in these ranges; redrawing until they do keeps the
	// work of every seed within a few per cent (see README, "Workloads").
	wideAncLo, wideAncHi         = 100_000, 104_000
	wideFiringsLo, wideFiringsHi = 202_000, 208_000
	wideDepthLo, wideDepthHi     = 19, 21

	genGenerations = 8
	genPerGen      = 200
)

// wideSeed picks the seed genWide draws from: the first from seed·1000 on
// whose graph has closure size, firings and depth in the wide* ranges.
func wideSeed(seed int64) int64 {
	for s := seed * 1000; ; s++ {
		c := closeOver(wideNodes, wideEdgeList(s))
		if c.size >= wideAncLo && c.size <= wideAncHi && c.firings >= wideFiringsLo && c.firings <= wideFiringsHi &&
			c.depth >= wideDepthLo && c.depth <= wideDepthHi {
			return s
		}
	}
}

// wideEdgeList draws wideEdges distinct edges without self-loops over
// wideNodes nodes, a simple random digraph with a mean out-degree of 2.
func wideEdgeList(seed int64) [][2]int32 {
	rng := rand.New(rand.NewSource(seed))
	var edges [][2]int32
	seen := map[[2]int32]bool{}
	for len(edges) < wideEdges {
		e := [2]int32{int32(rng.Intn(wideNodes)), int32(rng.Intn(wideNodes))}
		if e[0] == e[1] || seen[e] {
			continue
		}
		seen[e] = true
		edges = append(edges, e)
	}
	return edges
}

// genWide draws the tc-wide input from a seed wideSeed picked.
func genWide(seed int64) *graph {
	g := &graph{edges: wideEdgeList(seed)}
	for i := 0; i < wideNodes; i++ {
		g.names = append(g.names, fmt.Sprintf("n%d", i))
	}
	// Targets and parents are the nodes downstream of the giant strongly
	// connected component, which have more than half of all nodes as
	// ancestors: then every read and query asks for about as many
	// ancestors, and a write cannot cut a target off from them, since it
	// keeps at least one pool parent.
	hasChild := make([]bool, wideNodes)
	for _, e := range g.edges {
		hasChild[e[0]] = true
	}
	for v, k := range closeOver(wideNodes, g.edges).ancestorCounts() {
		switch {
		case k <= wideNodes/2:
		case hasChild[v]:
			g.pool = append(g.pool, int32(v))
		default:
			g.targets = append(g.targets, int32(v))
		}
	}
	return g
}

// genGenealogy builds the genealogy input: genGenerations generations of
// genPerGen people, p<g>_<i>, in which everyone below the first
// generation has two distinct parents drawn from the generation before.
func genGenealogy(seed int64) *graph {
	rng := rand.New(rand.NewSource(seed))
	n := genGenerations * genPerGen
	g := &graph{names: make([]string, n)}
	for gen := 0; gen < genGenerations; gen++ {
		for i := 0; i < genPerGen; i++ {
			v := int32(gen*genPerGen + i)
			g.names[v] = fmt.Sprintf("p%d_%d", gen, i)
			if gen == 0 {
				continue
			}
			base := int32((gen - 1) * genPerGen)
			a := rng.Intn(genPerGen)
			b := rng.Intn(genPerGen - 1)
			if b >= a {
				b++
			}
			g.edges = append(g.edges, [2]int32{base + int32(a), v}, [2]int32{base + int32(b), v})
			switch gen {
			case genGenerations - 2:
				g.pool = append(g.pool, v)
			case genGenerations - 1:
				g.targets = append(g.targets, v)
			}
		}
	}
	return g
}

// inputGen makes a workload's input as draw(pick(seed)). pick runs once
// per run, before any set-up is timed, so that setup_s does not follow
// how long a seed's search takes; draw is timed in every set-up.
type inputGen struct {
	pick func(seed int64) int64
	draw func(seed int64) *graph
}

func (w inputGen) gen(seed int64) *graph { return w.draw(w.pick(seed)) }

var generators = map[string]inputGen{
	"tc-wide":   {wideSeed, genWide},
	"genealogy": {func(seed int64) int64 { return seed }, genGenealogy},
}
