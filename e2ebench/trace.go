package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"time"
)

// span is one call into a layer's public function, recorded by the
// benchmark around the call; the program itself is not instrumented.
// Spans of one operation share Op, and Parent indexes the enclosing span
// (-1 for an operation's root).
type span struct {
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	Parent int    `json:"parent"`
	Op     int    `json:"op"`
}

// tracer keeps the spans of the traced run in memory until the run ends.
// Its methods do nothing on a nil tracer, which is what the untraced run
// passes.
type tracer struct {
	t0    time.Time
	spans []span
	ops   int
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// begin opens a span under parent (-1 opens a new operation) and returns
// its index.
func (t *tracer) begin(name string, parent int) int {
	if t == nil {
		return -1
	}
	op := t.ops
	if parent < 0 {
		t.ops++
	} else {
		op = t.spans[parent].Op
	}
	t.spans = append(t.spans, span{Name: name, Start: time.Since(t.t0).Nanoseconds(), Parent: parent, Op: op})
	return len(t.spans) - 1
}

func (t *tracer) end(i int) {
	if t == nil {
		return
	}
	t.spans[i].End = time.Since(t.t0).Nanoseconds()
}

// durations returns the durations in nanoseconds of the spans named name.
func (t *tracer) durations(name string) []float64 {
	var out []float64
	for _, s := range t.spans {
		if s.Name == name {
			out = append(out, float64(s.End-s.Start))
		}
	}
	return out
}

// write stores the spans as a JSON array under dir and returns the path.
func (t *tracer) write(dir, workload string, seed int64) (string, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	path := filepath.Join(dir, fmt.Sprintf("e2ebench-spans-%s-%d.json", workload, seed))
	raw, err := json.Marshal(t.spans)
	if err != nil {
		return "", err
	}
	return path, os.WriteFile(path, raw, 0o644)
}

// printSelfTimes prints, per span name, the number of spans, their total
// time and their self time: the total less the time their child spans
// cover.
func (t *tracer) printSelfTimes(w io.Writer) {
	type agg struct {
		n           int
		total, self int64
	}
	by := map[string]*agg{}
	for _, s := range t.spans {
		a := by[s.Name]
		if a == nil {
			a = &agg{}
			by[s.Name] = a
		}
		d := s.End - s.Start
		a.n++
		a.total += d
		a.self += d
		if s.Parent >= 0 {
			by[t.spans[s.Parent].Name].self -= d
		}
	}
	names := make([]string, 0, len(by))
	for name := range by {
		names = append(names, name)
	}
	sort.Slice(names, func(i, j int) bool { return by[names[i]].self > by[names[j]].self })
	fmt.Fprintf(w, "%-28s %8s %12s %12s\n", "span", "count", "total_ms", "self_ms")
	for _, name := range names {
		a := by[name]
		fmt.Fprintf(w, "%-28s %8d %12.3f %12.3f\n", name, a.n, float64(a.total)/1e6, float64(a.self)/1e6)
	}
}
