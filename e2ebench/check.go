package main

import (
	"fmt"

	"parlog"
)

// closure is the transitive closure of a graph computed by breadth-first
// search, apart from any code of the program under test: reach[x] has bit
// y set when anc(x, y) holds.
type closure struct {
	n     int
	reach [][]uint64
	size  int
	// depth is the longest shortest path, in edges.
	depth int
	// firings is the Definition-4 firing count of Example 3 on this
	// graph: one per par(x, y) for the exit rule, plus one per pair of
	// par(x, z) and anc(z, y) for the recursive rule.
	firings int64
}

func closeOver(n int, edges [][2]int32) *closure {
	succ := make([][]int32, n)
	for _, e := range edges {
		succ[e[0]] = append(succ[e[0]], e[1])
	}
	words := (n + 63) / 64
	c := &closure{n: n, reach: make([][]uint64, n)}
	queue := make([]int32, 0, n)
	dist := make([]int, n)
	for x := 0; x < n; x++ {
		bits := make([]uint64, words)
		queue = queue[:0]
		for _, y := range succ[x] {
			if bits[y/64]&(1<<(y%64)) == 0 {
				bits[y/64] |= 1 << (y % 64)
				dist[y] = 1
				queue = append(queue, y)
			}
		}
		for i := 0; i < len(queue); i++ {
			z := queue[i]
			c.depth = max(c.depth, dist[z])
			for _, y := range succ[z] {
				if bits[y/64]&(1<<(y%64)) == 0 {
					bits[y/64] |= 1 << (y % 64)
					dist[y] = dist[z] + 1
					queue = append(queue, y)
				}
			}
		}
		c.reach[x] = bits
	}
	counts := make([]int, n)
	for x := range c.reach {
		counts[x] = popcount(c.reach[x])
		c.size += counts[x]
	}
	for _, e := range edges {
		c.firings += 1 + int64(counts[e[1]])
	}
	return c
}

// ancestorCounts returns, for each node y, the number of x with anc(x, y).
func (c *closure) ancestorCounts() []int {
	counts := make([]int, c.n)
	for x := range c.reach {
		for y := 0; y < c.n; y++ {
			if c.has(int32(x), int32(y)) {
				counts[y]++
			}
		}
	}
	return counts
}

func popcount(bits []uint64) int {
	k := 0
	for _, w := range bits {
		for ; w != 0; w &= w - 1 {
			k++
		}
	}
	return k
}

func (c *closure) has(x, y int32) bool { return c.reach[x][y/64]&(1<<(y%64)) != 0 }

// nodeIndex maps the program's interned values back to graph nodes.
type nodeIndex []int32

func newNodeIndex(p *parlog.Program, g *graph) nodeIndex {
	idx := nodeIndex{}
	for v, name := range g.names {
		val := int(p.Intern(name))
		for len(idx) <= val {
			idx = append(idx, -1)
		}
		idx[val] = int32(v)
	}
	return idx
}

func (ix nodeIndex) node(v parlog.Value) int32 {
	if v < 0 || int(v) >= len(ix) {
		return -1
	}
	return ix[v]
}

// checkModel reports whether rel is exactly the closure: the same size,
// and every row a closure pair (a relation holds no duplicate rows).
func checkModel(rel *parlog.Relation, c *closure, ix nodeIndex) error {
	if rel == nil {
		return fmt.Errorf("anc missing from the output")
	}
	if rel.Len() != c.size {
		return fmt.Errorf("|anc| = %d, closure has %d", rel.Len(), c.size)
	}
	for _, t := range rel.Rows() {
		x, y := ix.node(t[0]), ix.node(t[1])
		if x < 0 || y < 0 || !c.has(x, y) {
			return fmt.Errorf("anc(%d, %d) is not in the closure", t[0], t[1])
		}
	}
	return nil
}

// mirror is the benchmark's own copy of a live EDB: the parents of each
// node, updated beside every View.Apply.
type mirror struct {
	parents [][]int32
	edges   int
}

func newMirror(g *graph) *mirror {
	m := &mirror{parents: make([][]int32, g.n())}
	for _, e := range g.edges {
		m.add(e[0], e[1])
	}
	return m
}

func (m *mirror) has(u, v int32) bool {
	for _, p := range m.parents[v] {
		if p == u {
			return true
		}
	}
	return false
}

func (m *mirror) add(u, v int32) {
	m.parents[v] = append(m.parents[v], u)
	m.edges++
}

func (m *mirror) remove(u, v int32) {
	ps := m.parents[v]
	for i, p := range ps {
		if p == u {
			m.parents[v] = append(ps[:i], ps[i+1:]...)
			m.edges--
			return
		}
	}
}

func (m *mirror) edgeList() [][2]int32 {
	edges := make([][2]int32, 0, m.edges)
	for v, ps := range m.parents {
		for _, u := range ps {
			edges = append(edges, [2]int32{u, int32(v)})
		}
	}
	return edges
}

// ancestors returns, by breadth-first search over the mirror, the set of
// nodes x with anc(x, v).
func (m *mirror) ancestors(v int32) map[int32]bool {
	seen := map[int32]bool{}
	queue := []int32{v}
	for len(queue) > 0 {
		z := queue[0]
		queue = queue[1:]
		for _, p := range m.parents[z] {
			if !seen[p] {
				seen[p] = true
				queue = append(queue, p)
			}
		}
	}
	return seen
}

// checkAnswers reports whether the answers to anc(X, v) are exactly want:
// every answer binds v and an ancestor, and none is missing.
func checkAnswers(answers []parlog.Tuple, v int32, want map[int32]bool, ix nodeIndex) error {
	if len(answers) != len(want) {
		return fmt.Errorf("%d answers, want %d", len(answers), len(want))
	}
	got := make(map[int32]bool, len(answers))
	for _, t := range answers {
		x := ix.node(t[0])
		if ix.node(t[1]) != v || !want[x] || got[x] {
			return fmt.Errorf("wrong answer (%d, %d)", t[0], t[1])
		}
		got[x] = true
	}
	return nil
}
