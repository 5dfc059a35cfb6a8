package main

import (
	"context"
	"fmt"
	"time"

	"parlog"
	"parlog/internal/analysis"
	"parlog/internal/ast"
	"parlog/internal/hashpart"
	"parlog/internal/parallel"
	"parlog/internal/parser"
	"parlog/internal/relation"
	"parlog/internal/rewrite"
	"parlog/internal/wire"
)

// layerStats collects, in the traced run only, the counters the engines
// already report (Result.Stats, Result.Metrics, Result.Profile,
// ApplyStats) and the timings of single layers called directly.
type layerStats struct {
	seqFirings, seqNew, seqRows int64
	seqRounds                   int
	engine                      map[string]map[string][]float64 // engine → counter → samples

	applyFirings, applyRounds []float64
	deletes                   int
	overdeleted, rederived    int64

	demandRows, demandDerived []float64 // per answer

	m map[string]metric // measured directly in measureLayers
}

func (l *layerStats) add(eng, counter string, v float64) {
	if l.engine == nil {
		l.engine = map[string]map[string][]float64{}
	}
	if l.engine[eng] == nil {
		l.engine[eng] = map[string][]float64{}
	}
	l.engine[eng][counter] = append(l.engine[eng][counter], v)
}

func (l *layerStats) observeEval(e engine, res *parlog.Result) {
	if res.SeqStats != nil {
		l.seqFirings, l.seqNew, l.seqRounds = res.SeqStats.Firings, res.SeqStats.New, res.SeqStats.Iterations
		l.seqRows = profileRows(res.Profile)
		return
	}
	l.add(e.name, "tuples_sent", float64(res.Stats.TotalTuplesSent()))
	l.add(e.name, "busy_max_ms", ms(res.Stats.MaxBusy()))
	if m := res.Metrics; m != nil {
		var msgs, idle int64
		for _, p := range m.Procs {
			msgs += p.Messages
			idle += p.IdleNs
		}
		l.add(e.name, "messages", float64(msgs))
		l.add(e.name, "term_probes", float64(m.TermProbes))
		l.add(e.name, "idle_ms", float64(idle)/1e6/float64(len(m.Procs)))
	}
}

func profileRows(p *parlog.Profile) int64 {
	var rows int64
	if p != nil {
		for _, rp := range p.Rules {
			for _, a := range rp.Atoms {
				rows += a.Rows
			}
		}
	}
	return rows
}

func (l *layerStats) observeApply(st *parlog.ApplyStats, insert bool) {
	l.applyFirings = append(l.applyFirings, float64(st.Firings))
	l.applyRounds = append(l.applyRounds, float64(st.Iterations))
	if !insert {
		l.deletes++
		l.overdeleted += int64(st.Overdeleted)
		l.rederived += int64(st.Rederived)
	}
}

func (l *layerStats) observeQuery(q *parlog.QueryResult, answers int) {
	if answers == 0 || q.Profile == nil {
		return
	}
	var derived int64
	for _, rp := range q.Profile.Rules {
		derived += rp.New
	}
	l.demandRows = append(l.demandRows, float64(profileRows(q.Profile))/float64(answers))
	l.demandDerived = append(l.demandDerived, float64(derived)/float64(answers))
}

// timeLayer calls fn reps times inside one span per block, for blocks
// blocks, and returns the median time of one call in nanoseconds. Blocks
// keep every timed sample near a millisecond or longer.
func (r *run) timeLayer(name string, blocks, reps int, fn func()) float64 {
	var per []float64
	for b := 0; b < blocks; b++ {
		s := r.tr.begin(name, -1)
		t0 := time.Now()
		for i := 0; i < reps; i++ {
			fn()
		}
		d := time.Since(t0)
		r.tr.end(s)
		per = append(per, float64(d.Nanoseconds())/float64(reps))
	}
	return median(per)
}

// measureLayers calls single layers directly on the run's own inputs and
// model, after the measured loop.
func (l *layerStats) measureLayers(r *run) error {
	l.m = map[string]metric{}
	l.m["parse_us"] = metric{r.timeLayer("parser.Parse", 5, 2000, func() { parser.Parse(example3) }) / 1e3, "us"}

	prog, err := parser.Parse(example3)
	if err != nil {
		return err
	}
	spec := rewrite.SirupSpec{Procs: hashpart.RangeProcs(r.workers), VR: []string{"Z"}, VE: []string{"X"},
		H: hashpart.ModHash{N: r.workers}}
	var compiled *parallel.Program
	compile := func() {
		s, err := analysis.ExtractSirup(prog)
		if err == nil {
			compiled, err = parallel.BuildQ(s, spec)
		}
		if err != nil {
			panic(err)
		}
	}
	l.m["compile_us"] = metric{r.timeLayer("analysis.ExtractSirup+parallel.BuildQ", 5, 200, compile) / 1e3, "us"}
	l.m["partition_ms"] = metric{r.timeLayer("parallel.PrepareEDB", 5, 20, func() {
		if _, err := parallel.PrepareEDB(compiled, r.edb); err != nil {
			panic(err)
		}
	}) / 1e6, "ms"}

	goalProg, err := parser.Parse(fmt.Sprintf("q(ok) :- %s.", r.goal(r.g.targets[0])))
	if err != nil {
		return err
	}
	goal := goalProg.Rules[0].Body[0]
	l.m["demand_rewrite_us"] = metric{r.timeLayer("rewrite.DemandRewrite", 5, 500, func() {
		if _, err := rewrite.DemandRewrite(prog, goal); err != nil {
			panic(err)
		}
	}) / 1e3, "us"}

	res, err := parlog.Eval(context.Background(), r.prog, r.edb, parlog.EvalOptions{})
	if err != nil {
		return err
	}
	anc := res.Output["anc"]
	rows := anc.Rows()
	l.m["insert_ns"] = metric{r.timeLayer("relation.Insert", 5, 1, func() {
		rel := relation.New(2)
		for _, t := range rows {
			rel.Insert(t)
		}
	}) / float64(len(rows)), "ns"}
	ix := anc.IndexOn(0)
	key := make([]ast.Value, 1)
	l.m["probe_ns"] = metric{r.timeLayer("relation.Index.Probe", 5, 1, func() {
		for _, t := range rows {
			key[0] = t[0]
			ix.Probe(key, 0, anc.Len())
		}
	}) / float64(len(rows)), "ns"}
	var builds []float64
	for i := 0; i < 5; i++ {
		c := anc.Clone()
		s := r.tr.begin("relation.IndexOn", -1)
		t0 := time.Now()
		c.IndexOn(0)
		builds = append(builds, ms(time.Since(t0)))
		r.tr.end(s)
	}
	l.m["index_build_ms"] = metric{median(builds), "ms"}

	one := parlog.NewRelation(2)
	one.Insert(r.tuple(r.g.edges[0][0], r.g.edges[0][1]))
	oneEDB := parlog.Store{"par": one}
	for _, e := range engines[1:] {
		var err error
		l.m[e.name+"_empty_ms"] = metric{r.timeLayer("parlog.Eval.empty."+e.name, 5, 10, func() {
			if err == nil {
				_, err = parlog.Eval(context.Background(), r.prog, oneEDB, r.evalOptions(e))
			}
		}) / 1e6, "ms"}
		if err != nil {
			return err
		}
	}

	// The wire codec on the batch size the distributed engine sent.
	batch := 1
	if msgs := median(l.engine["dist"]["messages"]); msgs > 0 {
		batch = max(1, int(median(l.engine["dist"]["tuples_sent"])/msgs))
	}
	var buf []byte
	var encoded int
	l.m["wire_encode_ns"] = metric{r.timeLayer("wire.AppendBatch", 5, 1, func() {
		encoded = 0
		for i := 0; i < len(rows); i += batch {
			buf = wire.AppendBatch(buf[:0], rows[i:min(i+batch, len(rows))])
			encoded += len(buf)
		}
	}) / float64(len(rows)), "ns"}
	l.m["wire_bytes_per_tuple"] = metric{float64(encoded) / float64(len(rows)), "B"}
	var blobs [][]byte
	for i := 0; i < len(rows); i += batch {
		blobs = append(blobs, wire.AppendBatch(nil, rows[i:min(i+batch, len(rows))]))
	}
	l.m["wire_decode_ns"] = metric{r.timeLayer("wire.DecodeBatch", 5, 1, func() {
		for _, b := range blobs {
			if _, err := wire.DecodeBatch(b); err != nil {
				panic(err)
			}
		}
	}) / float64(len(rows)), "ns"}
	return nil
}

// perLayer fills the per-layer metrics of the traced run.
func (r *run) perLayer(m map[string]metric) {
	l := &r.layer
	for k, v := range l.m {
		m[k] = v
	}
	seqMs := median(r.samples["seq_ms"])
	m["firings"] = metric{float64(l.seqFirings), "count"}
	m["rounds"] = metric{float64(l.seqRounds), "count"}
	m["dup_ratio"] = metric{float64(l.seqFirings-l.seqNew) / float64(l.seqFirings), "ratio"}
	m["rows_per_firing"] = metric{float64(l.seqRows) / float64(l.seqFirings), "ratio"}
	m["ns_per_firing"] = metric{seqMs * 1e6 / float64(l.seqFirings), "ns"}

	prev := seqMs
	for _, e := range engines[1:] {
		c := l.engine[e.name]
		wall := median(r.samples[e.name+"_ms"])
		sent := median(c["tuples_sent"])
		m[e.name+"_tuples_sent"] = metric{sent, "count"}
		m[e.name+"_ns_per_sent_tuple"] = metric{(wall - prev) * 1e6 / sent, "ns"}
		m[e.name+"_messages"] = metric{median(c["messages"]), "count"}
		m[e.name+"_term_probes"] = metric{median(c["term_probes"]), "count"}
		m[e.name+"_busy_max_ms"] = metric{median(c["busy_max_ms"]), "ms"}
		prev = wall
	}
	m["par_idle_ms"] = metric{median(l.engine["par"]["idle_ms"]), "ms"}

	m["apply_firings"] = metric{median(l.applyFirings), "count"}
	m["apply_rounds"] = metric{median(l.applyRounds), "count"}
	m["overdeleted_per_delete"] = metric{float64(l.overdeleted) / float64(max(l.deletes, 1)), "count"}
	m["rederived_ratio"] = metric{float64(l.rederived) / float64(max(l.overdeleted, 1)), "ratio"}
	m["demand_rows_per_answer"] = metric{median(l.demandRows), "ratio"}
	m["demand_derived_per_answer"] = metric{median(l.demandDerived), "ratio"}

	m["snapshot_us"] = metric{median(r.tr.durations("View.Snapshot.fresh")) / 1e3, "us"}
	tuples := 0
	if snap, err := r.view.Snapshot(); err == nil {
		tuples = snap.Store().TotalTuples()
	}
	m["model_b_per_tuple"] = metric{float64(r.viewBytes) / float64(max(tuples, 1)), "B"}
}
