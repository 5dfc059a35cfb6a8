package main

import (
	"context"
	"reflect"
	"testing"

	"parlog"
)

// input builds the program and EDB of one generated workload input.
func input(t *testing.T, workload string) (*graph, *parlog.Program, parlog.Store, nodeIndex) {
	t.Helper()
	g := generators[workload].gen(1)
	p, err := parlog.Parse(example3)
	if err != nil {
		t.Fatal(err)
	}
	par := parlog.NewRelation(2)
	for _, e := range g.edges {
		par.Insert(parlog.Tuple{p.Intern(g.names[e[0]]), p.Intern(g.names[e[1]])})
	}
	return g, p, parlog.Store{"par": par}, newNodeIndex(p, g)
}

// without copies rel, leaving out row skip.
func without(rel *parlog.Relation, skip int) *parlog.Relation {
	out := parlog.NewRelation(2)
	for i, t := range rel.Rows() {
		if i != skip {
			out.Insert(t)
		}
	}
	return out
}

func TestCheckModelCatchesMissingAndSpuriousTuples(t *testing.T) {
	for workload := range generators {
		t.Run(workload, func(t *testing.T) {
			g, p, edb, ix := input(t, workload)
			c := closeOver(g.n(), g.edges)
			res, err := parlog.Eval(context.Background(), p, edb, parlog.EvalOptions{})
			if err != nil {
				t.Fatal(err)
			}
			anc := res.Output["anc"]
			if err := checkModel(anc, c, ix); err != nil {
				t.Fatalf("correct model rejected: %v", err)
			}
			r := &run{clo: c, ix: ix}
			if err := r.checkEval(engines[0], res); err != nil {
				t.Fatalf("correct result rejected: %v", err)
			}
			res.SeqStats.Firings++
			if r.checkEval(engines[0], res) == nil {
				t.Error("result with one firing too many accepted")
			}
			// A target has no children, so anc(target, _) never holds.
			spurious := parlog.Tuple{p.Intern(g.names[g.targets[0]]), p.Intern(g.names[0])}

			missing := without(anc, anc.Len()/2)
			if checkModel(missing, c, ix) == nil {
				t.Error("model with one tuple removed accepted")
			}
			extra := anc.Clone()
			extra.Insert(spurious)
			if checkModel(extra, c, ix) == nil {
				t.Error("model with one spurious tuple accepted")
			}
			swapped := without(anc, 0)
			swapped.Insert(spurious)
			if checkModel(swapped, c, ix) == nil {
				t.Error("model with one tuple swapped for a spurious one accepted")
			}
		})
	}
}

func TestCheckAnswersCatchesMissingAndSpuriousAnswers(t *testing.T) {
	g, p, edb, ix := input(t, "genealogy")
	v := g.targets[0]
	goal := "anc(X, " + g.names[v] + ")"
	q, err := parlog.Query(context.Background(), p, edb, goal, parlog.EvalOptions{})
	if err != nil {
		t.Fatal(err)
	}
	answers := q.All()
	want := newMirror(g).ancestors(v)
	if err := checkAnswers(answers, v, want, ix); err != nil {
		t.Fatalf("correct answers rejected: %v", err)
	}
	spurious := parlog.Tuple{p.Intern(g.names[g.targets[1]]), p.Intern(g.names[v])}
	if checkAnswers(answers[1:], v, want, ix) == nil {
		t.Error("answers with one removed accepted")
	}
	if checkAnswers(append(answers[:len(answers):len(answers)], spurious), v, want, ix) == nil {
		t.Error("answers with one spurious added accepted")
	}
	swapped := append([]parlog.Tuple{spurious}, answers[1:]...)
	if checkAnswers(swapped, v, want, ix) == nil {
		t.Error("answers with one swapped for a spurious one accepted")
	}
	dup := append([]parlog.Tuple{answers[1]}, answers[1:]...)
	if checkAnswers(dup, v, want, ix) == nil {
		t.Error("answers with one repeated in place of another accepted")
	}
}

func TestMirrorFollowsWrites(t *testing.T) {
	g, _, _, _ := input(t, "genealogy")
	m := newMirror(g)
	v, u := g.targets[0], g.pool[0]
	if m.has(u, v) {
		u = g.pool[1]
	}
	before := m.ancestors(v)
	m.add(u, v)
	if !m.has(u, v) || !m.ancestors(v)[u] {
		t.Fatal("added parent is not an ancestor")
	}
	m.remove(u, v)
	if m.has(u, v) || !reflect.DeepEqual(m.ancestors(v), before) || m.edges != len(g.edges) {
		t.Fatal("removing the added parent did not restore the ancestors")
	}
}

func TestGeneratorsAreSeeded(t *testing.T) {
	for workload, w := range generators {
		a, b, c := w.gen(7), w.gen(7), w.gen(8)
		if !reflect.DeepEqual(a, b) {
			t.Errorf("%s: the same seed gave different inputs", workload)
		}
		if reflect.DeepEqual(a, c) {
			t.Errorf("%s: different seeds gave the same input", workload)
		}
		if len(a.targets) == 0 || len(a.pool) == 0 {
			t.Errorf("%s: %d targets, %d pool nodes", workload, len(a.targets), len(a.pool))
		}
	}
}

func TestInputShapes(t *testing.T) {
	gen := genGenealogy(3)
	m := newMirror(gen)
	for v := genPerGen; v < gen.n(); v++ {
		ps := m.parents[v]
		if len(ps) != 2 || ps[0] == ps[1] || int(ps[0])/genPerGen != v/genPerGen-1 || int(ps[1])/genPerGen != v/genPerGen-1 {
			t.Fatalf("genealogy: %s has parents %v, want two distinct ones from the generation before", gen.names[v], ps)
		}
	}
	wide := genWide(wideSeed(3))
	if c := closeOver(wide.n(), wide.edges); c.size < wideAncLo || c.size > wideAncHi || c.firings < wideFiringsLo ||
		c.firings > wideFiringsHi || c.depth < wideDepthLo || c.depth > wideDepthHi || len(wide.edges) != wideEdges {
		t.Errorf("tc-wide: |anc| %d, firings %d, depth %d with %d edges", c.size, c.firings, c.depth, len(wide.edges))
	}
}
