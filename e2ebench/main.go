// Command e2ebench is parlog's end-to-end benchmark. It runs the paper's
// Example 3 (anc over par, v(r) = ⟨Z⟩, v(e) = ⟨X⟩, hash partition) on the
// sequential, in-process parallel and loopback-TCP engines, and serves a
// live View with writes, snapshot reads and demand-rewritten queries, on a
// seeded input; it checks every answer against its own breadth-first
// closure and prints every metric by name and unit. The last line of
// standard output is the JSON result.
//
//	e2ebench --workload tc-wide|genealogy --seed N --seconds S --trace 0|1
//
// --trace 0 reports the end-to-end metrics; --trace 1 turns on the
// engines' counters and profiles, records a span around every call into a
// layer, and reports the per-layer metrics instead. See README.md.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/debug"
	"sort"
)

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func main() {
	workload := flag.String("workload", "", "tc-wide or genealogy")
	seed := flag.Int64("seed", 1, "input and stream seed")
	seconds := flag.Int("seconds", 10, "measured seconds")
	trace := flag.Int("trace", 0, "1 for the traced run that reports per-layer metrics")
	spansDir := flag.String("spans-dir", ".bench_build", "where the traced run writes its spans")
	flag.Parse()
	w, ok := generators[*workload]
	if !ok || *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(os.Stderr, "usage: e2ebench --workload tc-wide|genealogy --seed N --seconds S --trace 0|1")
		os.Exit(2)
	}

	fmt.Printf("host: NumCPU=%d GOMAXPROCS=%d go=%s commit=%s\n",
		runtime.NumCPU(), runtime.GOMAXPROCS(0), runtime.Version(), commit())
	var tr *tracer
	if *trace == 1 {
		tr = newTracer()
	}
	in := w.pick(*seed)
	r, err := newRun(func() *graph { return w.draw(in) }, *seed, *seconds, tr)
	if err != nil {
		fmt.Fprintln(os.Stderr, "e2ebench:", err)
		os.Exit(1)
	}
	if err := r.measure(); err != nil {
		fmt.Fprintln(os.Stderr, "e2ebench:", err)
		os.Exit(1)
	}
	res := result{Correct: r.correct, Attempted: r.attempted, Failed: r.failed, Metrics: map[string]metric{}}
	if tr == nil {
		r.endToEnd(res.Metrics)
	} else {
		r.perLayer(res.Metrics)
		path, err := tr.write(*spansDir, *workload, *seed)
		if err != nil {
			fmt.Fprintln(os.Stderr, "e2ebench: writing spans:", err)
			os.Exit(1)
		}
		fmt.Printf("spans: %s\n", path)
		tr.printSelfTimes(os.Stdout)
	}

	fmt.Printf("workload %s seed %d: attempted %d failed %d correct %v\n",
		*workload, *seed, r.attempted, r.failed, r.correct)
	names := make([]string, 0, len(res.Metrics))
	for name := range res.Metrics {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		fmt.Printf("  %-26s %14.6g %s\n", name, res.Metrics[name].Value, res.Metrics[name].Unit)
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "e2ebench:", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
}

// commit returns the VCS revision the binary was built from, when the
// build recorded one.
func commit() string {
	if info, ok := debug.ReadBuildInfo(); ok {
		for _, s := range info.Settings {
			if s.Key == "vcs.revision" {
				return s.Value
			}
		}
	}
	return "unknown"
}

// quantile returns the q-quantile of xs by linear interpolation between
// order statistics.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	i := int(pos)
	if i+1 >= len(s) {
		return s[i]
	}
	return s[i] + (pos-float64(i))*(s[i+1]-s[i])
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }
