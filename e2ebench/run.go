package main

import (
	"context"
	"fmt"
	"math/rand"
	"runtime"
	"time"

	"parlog"
)

const example3 = `anc(X, Y) :- par(X, Y).
anc(X, Y) :- par(X, Z), anc(Z, Y).
`

const (
	// Every setupEvery of measuring, the set-up is repeated on a throwaway
	// copy; setup_s is the median over these set-ups and the first one, so
	// that it samples the whole run like every other metric.
	setupEvery = 5 * time.Second
	// writesPerRound writes, each followed by one fresh read and a block
	// of cachedReads reads, come after the three engine calls of a round;
	// one one-shot query ends the round.
	writesPerRound = 4
	// cachedReads reads of the published snapshot are timed together,
	// so that no single sample is shorter than about a millisecond.
	cachedReads = 32
	// viewWrites writes after Open, view_mb is taken. The view's arena
	// grows with every delete, so a fixed count of writes, rather than the
	// end of a timed run, makes the figure independent of machine speed.
	viewWrites = 128
)

type engine struct {
	name string
	e    parlog.Engine
}

var engines = []engine{{"seq", parlog.EngineSequential}, {"par", parlog.EngineParallel}, {"dist", parlog.EngineDistributed}}

// run is one benchmark invocation: the input, the live view, and the
// samples of every timed operation.
type run struct {
	gen     func() *graph
	seconds int
	tr      *tracer // nil in the untraced run
	workers int

	g    *graph
	prog *parlog.Program
	edb  parlog.Store
	clo  *closure
	ix   nodeIndex

	view    *parlog.View
	mir     *mirror
	rng     *rand.Rand
	writes  int
	target  int32     // the node whose parent the next delete takes away
	pending []float64 // the last insert's time (ms) and allocation (KiB)

	attempted, failed int
	correct           bool
	samples           map[string][]float64
	setup             []float64
	heapBase          uint64
	viewBytes         uint64
	// Per-layer counters, filled only by the traced run.
	layer layerStats
}

func newRun(gen func() *graph, seed int64, seconds int, tr *tracer) (*run, error) {
	r := &run{gen: gen, seconds: seconds, tr: tr, workers: runtime.GOMAXPROCS(0),
		correct: true, samples: map[string][]float64{}}
	if err := r.setUp(); err != nil {
		return nil, err
	}
	r.rng = rand.New(rand.NewSource(seed ^ 0x5eed))
	return r, nil
}

// setUp generates the input, parses the program, makes one untimed
// warm-up call per engine and opens the view; only the part before the
// heap measurement and the Open itself count toward setup_s.
func (r *run) setUp() error {
	sp := r.tr.begin("setup", -1)
	defer r.tr.end(sp)
	t0 := time.Now()
	s := r.tr.begin("generate", sp)
	r.g = r.gen()
	r.tr.end(s)
	s = r.tr.begin("parlog.Parse", sp)
	prog, err := parlog.Parse(example3)
	r.tr.end(s)
	if err != nil {
		return fmt.Errorf("parse: %w", err)
	}
	r.prog = prog
	par := parlog.NewRelation(2)
	for _, e := range r.g.edges {
		par.Insert(parlog.Tuple{prog.Intern(r.g.names[e[0]]), prog.Intern(r.g.names[e[1]])})
	}
	r.edb = parlog.Store{"par": par}
	r.ix = newNodeIndex(prog, r.g)
	r.clo = closeOver(r.g.n(), r.g.edges)
	for _, e := range engines {
		s := r.tr.begin("warmup."+e.name, sp)
		res, err := parlog.Eval(context.Background(), r.prog, r.edb, r.evalOptions(e))
		r.tr.end(s)
		if err != nil {
			return fmt.Errorf("warm-up %s: %w", e.name, err)
		}
		if err := r.checkEval(e, res); err != nil {
			return fmt.Errorf("warm-up %s: %w", e.name, err)
		}
	}
	elapsed := time.Since(t0)

	runtime.GC()
	r.heapBase = heapAlloc()
	t1 := time.Now()
	s = r.tr.begin("parlog.Open", sp)
	r.view, err = parlog.Open(context.Background(), r.prog, r.edb, parlog.EvalOptions{})
	r.tr.end(s)
	if err != nil {
		return fmt.Errorf("open: %w", err)
	}
	elapsed += time.Since(t1)
	r.mir = newMirror(r.g)
	r.setup = append(r.setup, elapsed.Seconds())
	return nil
}

// setUpAgain repeats the set-up on a throwaway run and records its time.
func (r *run) setUpAgain() error {
	t := &run{gen: r.gen, tr: r.tr, workers: r.workers}
	if err := t.setUp(); err != nil {
		return err
	}
	t.view.Close()
	r.setup = append(r.setup, t.setup...)
	return nil
}

func (r *run) evalOptions(e engine) parlog.EvalOptions {
	o := parlog.EvalOptions{Engine: e.e, Metrics: r.tr != nil, Profile: r.tr != nil}
	if e.e != parlog.EngineSequential {
		o.Workers = r.workers
		o.Strategy = parlog.StrategyHashPartition
		o.VR, o.VE = []string{"Z"}, []string{"X"}
	}
	return o
}

// measure runs whole rounds until the measured time is up, repeating the
// set-up between rounds every setupEvery. A round is one call per engine,
// writesPerRound writes with their reads, and one one-shot query.
func (r *run) measure() error {
	start := time.Now()
	deadline := start.Add(time.Duration(r.seconds) * time.Second)
	nextSetup := start.Add(setupEvery)
	for time.Now().Before(deadline) {
		if time.Now().After(nextSetup) {
			if err := r.setUpAgain(); err != nil {
				return err
			}
			nextSetup = nextSetup.Add(setupEvery)
		}
		for _, e := range engines {
			r.evalOp(e)
		}
		for w := 0; w < writesPerRound; w++ {
			r.writeOp()
			r.readOps()
		}
		r.queryOp()
		if r.writes == viewWrites {
			r.measureView()
		}
	}
	if r.viewBytes == 0 {
		r.measureView()
	}
	return r.finish()
}

// measureView records the live heap the view holds: the heap after a
// forced collection less the heap before Open.
func (r *run) measureView() {
	runtime.GC()
	r.viewBytes = heapAlloc() - r.heapBase
	runtime.KeepAlive(r.view)
}

// record counts one attempted operation: callErr is an error the call
// returned, and check, run only when callErr is nil, reports a wrong
// answer. It reports whether the operation succeeded.
func (r *run) record(callErr error, check func() error) bool {
	r.attempted++
	err := callErr
	if err == nil && check != nil {
		if err = check(); err != nil {
			r.correct = false
		}
	}
	if err == nil {
		return true
	}
	r.failed++
	fmt.Printf("FAILED: %v\n", err)
	return false
}

func (r *run) sample(name string, v float64) { r.samples[name] = append(r.samples[name], v) }

func heapAlloc() uint64 {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.HeapAlloc
}

func totalAlloc() uint64 {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.TotalAlloc
}

func ms(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }

// evalOp evaluates Example 3 to its least model on one engine.
func (r *run) evalOp(e engine) {
	opts := r.evalOptions(e)
	a0 := totalAlloc()
	s := r.tr.begin("parlog.Eval."+e.name, -1)
	t0 := time.Now()
	res, err := parlog.Eval(context.Background(), r.prog, r.edb, opts)
	d := time.Since(t0)
	r.tr.end(s)
	a1 := totalAlloc()
	if !r.record(err, func() error {
		if err := r.checkEval(e, res); err != nil {
			return fmt.Errorf("%s: %w", e.name, err)
		}
		return nil
	}) {
		return
	}
	r.sample(e.name+"_ms", ms(d))
	r.sample(e.name+"_alloc_mb", float64(a1-a0)/(1<<20))
	if r.tr != nil {
		r.layer.observeEval(e, res)
	}
}

// checkEval checks one engine's least model against the closure, and its
// Definition-4 firings, summed over workers, against the count the
// closure implies (Theorem 2: the hash-partitioned scheme is
// non-redundant, so every engine fires exactly as often as the sequential
// one).
func (r *run) checkEval(e engine, res *parlog.Result) error {
	if err := checkModel(res.Output["anc"], r.clo, r.ix); err != nil {
		return err
	}
	var firings int64
	if res.SeqStats != nil {
		firings = res.SeqStats.Firings
	} else {
		firings = res.Stats.TotalFirings()
	}
	if firings != r.clo.firings {
		return fmt.Errorf("%d firings, Example 3 on this input fires %d times", firings, r.clo.firings)
	}
	return nil
}

// writeOp applies one single-edge delta. Writes alternate: the first of a
// pair gives a random target a new parent from its parent pool, the second
// deletes a random live parent edge of the same target.
func (r *run) writeOp() {
	var u, v int32
	d := parlog.NewDelta()
	insert := r.writes%2 == 0
	r.writes++
	if insert {
		v = r.g.targets[r.rng.Intn(len(r.g.targets))]
		for {
			u = r.g.pool[r.rng.Intn(len(r.g.pool))]
			if !r.mir.has(u, v) {
				break
			}
		}
		d.Add("par", r.tuple(u, v))
		r.target = v
	} else {
		v = r.target
		ps := r.mir.parents[v]
		u = ps[r.rng.Intn(len(ps))]
		d.Remove("par", r.tuple(u, v))
	}
	epoch := r.view.Epoch()
	a0 := totalAlloc()
	s := r.tr.begin("View.Apply", -1)
	t0 := time.Now()
	st, err := r.view.Apply(*d)
	dur := time.Since(t0)
	r.tr.end(s)
	a1 := totalAlloc()
	if err == nil {
		if insert {
			r.mir.add(u, v)
		} else {
			r.mir.remove(u, v)
		}
	}
	pending := r.pending
	r.pending = nil
	if !r.record(err, func() error {
		if got := r.view.Epoch(); got != epoch+1 {
			return fmt.Errorf("epoch %d after Apply at epoch %d", got, epoch)
		}
		return nil
	}) {
		return
	}
	// An insert and the delete after it differ in cost by about ten
	// times, so a median over single applies would fall between the two
	// modes; the samples are means over each insert/delete pair instead.
	if insert {
		r.pending = []float64{ms(dur), float64(a1-a0) / 1024}
	} else if pending != nil {
		r.sample("apply_ms", (pending[0]+ms(dur))/2)
		r.sample("apply_alloc_kb", (pending[1]+float64(a1-a0)/1024)/2)
	}
	if r.tr != nil {
		r.layer.observeApply(st, insert)
	}
}

func (r *run) tuple(u, v int32) parlog.Tuple {
	return parlog.Tuple{r.prog.Intern(r.g.names[u]), r.prog.Intern(r.g.names[v])}
}

func (r *run) goal(v int32) string { return fmt.Sprintf("anc(X, %s)", r.g.names[v]) }

// read is parlogd's /query path: take the current snapshot, query the
// goal on it and drain the answers.
func (r *run) read(v int32, fresh bool) ([]parlog.Tuple, error) {
	op := r.tr.begin("read", -1)
	defer r.tr.end(op)
	name := "View.Snapshot"
	if fresh {
		name = "View.Snapshot.fresh"
	}
	s := r.tr.begin(name, op)
	snap, err := r.view.Snapshot()
	r.tr.end(s)
	if err != nil {
		return nil, err
	}
	if snap.Epoch() != r.view.Epoch() {
		return nil, fmt.Errorf("snapshot epoch %d, view at %d", snap.Epoch(), r.view.Epoch())
	}
	s = r.tr.begin("Snapshot.Query", op)
	defer r.tr.end(s)
	q, err := snap.Query(context.Background(), r.goal(v))
	if err != nil {
		return nil, err
	}
	return q.All(), q.Err()
}

// readOps makes the first read after a write, which publishes a new
// snapshot, and then cachedReads reads of the published one, timed as a
// block; every answer is checked against the mirror after the timing.
func (r *run) readOps() {
	v := r.g.targets[r.rng.Intn(len(r.g.targets))]
	t0 := time.Now()
	ans, err := r.read(v, true)
	d := time.Since(t0)
	if r.record(err, func() error { return r.checkRead(ans, v) }) {
		r.sample("fresh_read_ms", ms(d))
	}

	vs := make([]int32, cachedReads)
	answers := make([][]parlog.Tuple, cachedReads)
	errs := make([]error, cachedReads)
	for i := range vs {
		vs[i] = r.g.targets[r.rng.Intn(len(r.g.targets))]
	}
	t0 = time.Now()
	for i, v := range vs {
		answers[i], errs[i] = r.read(v, false)
	}
	d = time.Since(t0)
	ok := true
	for i, v := range vs {
		if !r.record(errs[i], func() error { return r.checkRead(answers[i], v) }) {
			ok = false
		}
	}
	if ok {
		r.sample("read_us", float64(d.Nanoseconds())/1e3/cachedReads)
	}
}

func (r *run) checkRead(ans []parlog.Tuple, v int32) error {
	if err := checkAnswers(ans, v, r.mir.ancestors(v), r.ix); err != nil {
		return fmt.Errorf("read %s: %w", r.goal(v), err)
	}
	return nil
}

// queryOp answers one goal with a one-shot, demand-rewritten parlog.Query
// over the current EDB.
func (r *run) queryOp() {
	v := r.g.targets[r.rng.Intn(len(r.g.targets))]
	par := parlog.NewRelation(2)
	for c, ps := range r.mir.parents {
		for _, p := range ps {
			par.Insert(r.tuple(p, int32(c)))
		}
	}
	edb := parlog.Store{"par": par}
	opts := parlog.EvalOptions{Profile: r.tr != nil}
	a0 := totalAlloc()
	s := r.tr.begin("parlog.Query", -1)
	t0 := time.Now()
	q, err := parlog.Query(context.Background(), r.prog, edb, r.goal(v), opts)
	var ans []parlog.Tuple
	if err == nil {
		ans = q.All()
		err = q.Err()
	}
	d := time.Since(t0)
	r.tr.end(s)
	a1 := totalAlloc()
	if !r.record(err, func() error {
		if err := checkAnswers(ans, v, r.mir.ancestors(v), r.ix); err != nil {
			return fmt.Errorf("query %s: %w", r.goal(v), err)
		}
		return nil
	}) {
		return
	}
	r.sample("query_ms", ms(d))
	r.sample("query_alloc_kb", float64(a1-a0)/1024)
	if r.tr != nil {
		r.layer.observeQuery(q, len(ans))
	}
}

// finish checks the view's full model against the closure of the mirror
// and, in the traced run, measures single layers.
func (r *run) finish() error {
	if err := r.checkView(); err != nil {
		r.correct = false
		fmt.Printf("FAILED: final model: %v\n", err)
	}
	if r.tr != nil {
		return r.layer.measureLayers(r)
	}
	return nil
}

func (r *run) checkView() error {
	snap, err := r.view.Snapshot()
	if err != nil {
		return err
	}
	return checkModel(snap.Store()["anc"], closeOver(r.g.n(), r.mir.edgeList()), r.ix)
}

// endToEnd fills the end-to-end metrics: medians over the run's
// operations of each type, and apply's 90th percentile.
func (r *run) endToEnd(m map[string]metric) {
	m["setup_s"] = metric{median(r.setup), "s"}
	for _, e := range engines {
		m[e.name+"_ms"] = metric{median(r.samples[e.name+"_ms"]), "ms"}
		m[e.name+"_alloc_mb"] = metric{median(r.samples[e.name+"_alloc_mb"]), "MiB"}
	}
	m["apply_ms"] = metric{median(r.samples["apply_ms"]), "ms"}
	m["apply_ms_p90"] = metric{quantile(r.samples["apply_ms"], 0.9), "ms"}
	m["apply_alloc_kb"] = metric{median(r.samples["apply_alloc_kb"]), "KiB"}
	m["fresh_read_ms"] = metric{median(r.samples["fresh_read_ms"]), "ms"}
	m["read_us"] = metric{median(r.samples["read_us"]), "us"}
	m["query_ms"] = metric{median(r.samples["query_ms"]), "ms"}
	m["query_alloc_kb"] = metric{median(r.samples["query_alloc_kb"]), "KiB"}
	m["view_mb"] = metric{float64(r.viewBytes) / (1 << 20), "MiB"}
}
