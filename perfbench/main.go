// Command perfbench is topocon's benchmark. It runs one workload for a
// given seed and prints every metric by name, with its unit and sample
// count, ending with one JSON line:
//
//	bash perfbench/run.sh --workload deep-session|svc-cold --seed N --seconds S --trace 0|1
//
// from the root of a checkout (run.sh builds this module, which reaches
// topocon's internal packages through a replace directive, into
// .bench_build/).
//
// Workloads, all closed loops in one process:
//
//   - deep-session: one client running fresh Analyzer sessions back to
//     back — three pinned anchors (lossy-star-4 at horizon 7 with and
//     without the symmetry quotient, lossy3 at horizon 10) and nine
//     seed-generated oblivious adversaries, three per automorphism-group
//     order 1, 2 and 6.
//   - svc-cold: one client against an in-process topoconsvc, posting
//     the first 1000 documents of a seeded stream of scenario and template
//     jobs and following each job's events; each such epoch runs on a
//     fresh daemon over empty store and checkpoint directories.
//
// With --trace 0 it reports the end-to-end metrics, measured with tracing
// off: setup_s (median of three set-ups), jobs_per_s, job_ms.p50 and .p90,
// cpu_ms_per_job and peak_heap_mb. With --trace 1 it drives the same inputs
// through the layers' public functions from its own code, timing each call
// as a span, and reports the per-layer metrics; the spans and each layer's
// share of end-to-end time are written under .bench_build/perfbench/traces.
//
// Every result is checked before it counts. A failed correctness gate
// sets "correct": false and makes the command exit 1.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"time"
)

// Metric is one reported value.
type Metric struct {
	Value   float64 `json:"value"`
	Unit    string  `json:"unit"`
	samples int
}

// Result is one workload run's outcome.
type Result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]Metric `json:"metrics"`

	failures []string
}

func (r *Result) set(name string, value float64, unit string, samples int) {
	r.Metrics[name] = Metric{Value: value, Unit: unit, samples: samples}
}

func (r *Result) fail(format string, args ...any) {
	r.failures = append(r.failures, fmt.Sprintf(format, args...))
}

// perLayerUnits lists every per-layer metric with its unit. A traced run
// reports all of them; a layer a workload does not exercise reads 0.
var perLayerUnits = map[string]string{
	"topo.extend_ms":              "ms",
	"topo.extend_ns_per_item":     "ns",
	"topo.refine_ms":              "ms",
	"topo.interned_items":         "count",
	"topo.full_runs":              "count",
	"topo.quotient_ratio":         "ratio",
	"ptg.interned_views":          "count",
	"check.session_ms.star4":      "ms",
	"check.session_ms.star4-full": "ms",
	"check.session_ms.lossy3":     "ms",
	"check.decisionmap_ms":        "ms",
	"check.certificate_ms":        "ms",
	"check.analyzers":             "count",
	"ma.fingerprint_us":           "us",
	"ma.automorphisms_us":         "us",
	"scenario.parse_us":           "us",
	"sweep.key_us":                "us",
	"sweep.cell_ms":               "ms",
	"sweep.memory_hits":           "count",
	"sweep.computes":              "count",
	"sweep.hit_ratio":             "ratio",
	"store.get_us":                "us",
	"store.put_us":                "us",
	"store.puts":                  "count",
	"ckpt.checkpoints":            "count",
	"ckpt.cell_overhead_ms":       "ms",
	"pager.pages_spilled":         "count",
	"pager.pages_faulted":         "count",
	"svc.submit_ms":               "ms",
	"svc.queue_wait_ms":           "ms",
	"svc.run_ms":                  "ms",
	"svc.self_ms":                 "ms",
	"svc.orphan_job_docs":         "count",
	"svc.truncated_streams":       "count",
	"trace.overhead_frac":         "frac",
}

// setupRepeats is how many times a run sets up; setup_s is their median
// and the last set-up is the one measured.
const setupRepeats = 3

// workload is one benchmark workload: set up (repeatable, each product
// closed before the next), then measure untraced or traced.
type workload interface {
	setup(ctx context.Context) error
	close()
	measure(ctx context.Context, budget time.Duration, r *Result) error
	traced(ctx context.Context, budget time.Duration, r *Result, tr *Tracer) ([]LayerShare, error)
}

func main() {
	name := flag.String("workload", "", "deep-session or svc-cold")
	seed := flag.Int64("seed", 1, "input seed: the same seed gives the same inputs")
	seconds := flag.Int("seconds", 10, "measurement budget in seconds")
	trace := flag.Int("trace", 0, "1: traced run reporting per-layer metrics")
	root := flag.String("root", ".", "repository checkout the benchmark runs in")
	flag.Parse()
	os.Exit(run(*name, *seed, time.Duration(*seconds)*time.Second, *trace == 1, *root))
}

func run(name string, seed int64, budget time.Duration, traced bool, root string) int {
	ctx := context.Background()
	work := filepath.Join(root, ".bench_build", "perfbench")
	stateRoot := filepath.Join(work, "state")
	if err := os.MkdirAll(stateRoot, 0o755); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 2
	}
	fs, err := stateFS(stateRoot)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 2
	}
	host := hostInfo(fs)
	state, err := os.MkdirTemp(stateRoot, name+"-")
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 2
	}
	defer os.RemoveAll(state)

	var w workload
	switch name {
	case "deep-session":
		w = &deepWorkload{root: root, seed: seed}
	case "svc-cold":
		w = &svcWorkload{seed: seed, state: state}
	default:
		fmt.Fprintf(os.Stderr, "perfbench: unknown workload %q (deep-session, svc-cold)\n", name)
		return 2
	}

	r := &Result{Metrics: map[string]Metric{}}
	var setups []float64
	for i := 0; i < setupRepeats; i++ {
		if i > 0 {
			w.close()
		}
		t := time.Now()
		if err := w.setup(ctx); err != nil {
			fmt.Fprintln(os.Stderr, "perfbench: set-up:", err)
			return 1
		}
		setups = append(setups, time.Since(t).Seconds())
	}
	defer w.close()
	// Start the measurement from the same state on every run: no set-up
	// garbage steering the GC pacer, no set-up writes still in writeback.
	runtime.GC()
	if err := syncFS(state); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}

	var shares []LayerShare
	var tr *Tracer
	if traced {
		tr = NewTracer()
		shares, err = w.traced(ctx, budget, r, tr)
	} else {
		err = w.measure(ctx, budget, r)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	if traced {
		for metric, unit := range perLayerUnits {
			if _, ok := r.Metrics[metric]; !ok {
				r.set(metric, 0, unit, 0)
			}
		}
		path := filepath.Join(work, "traces", fmt.Sprintf("%s-seed%d.json", name, seed))
		if err := writeTrace(path, name, seed, tr.Spans(), shares); err != nil {
			fmt.Fprintln(os.Stderr, "perfbench: writing trace:", err)
			return 1
		}
		fmt.Printf("spans: %d written to %s\n", len(tr.Spans()), path)
		fmt.Printf("layer shares of end-to-end time (%s):\n", name)
		for _, s := range shares {
			fmt.Printf("  %-10s %10.1f ms  %6.1f%%\n", s.Layer, s.SelfMs, 100*s.Share)
		}
	} else {
		r.set("setup_s", median(setups), "s", len(setups))
	}
	r.Correct = len(r.failures) == 0 && r.Failed == 0
	report(name, seed, host, r)
	if !r.Correct {
		return 1
	}
	return 0
}

// report prints the human-readable lines, then the JSON result line.
func report(name string, seed int64, host Host, r *Result) {
	hostJSON, _ := json.Marshal(host)
	fmt.Printf("workload %s seed %d host %s\n", name, seed, hostJSON)
	errRate := 0.0
	if r.Attempted > 0 {
		errRate = float64(r.Failed) / float64(r.Attempted)
	}
	fmt.Printf("  %-28s %14.6g %-6s (%d attempted, %d failed)\n", "error_rate", errRate, "frac", r.Attempted, r.Failed)
	names := make([]string, 0, len(r.Metrics))
	for n := range r.Metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		m := r.Metrics[n]
		fmt.Printf("  %-28s %14.6g %-6s n=%d\n", n, m.Value, m.Unit, m.samples)
	}
	for i, f := range r.failures {
		if i == 20 {
			break
		}
		fmt.Printf("FAIL: %s\n", f)
	}
	if len(r.failures) > 20 {
		fmt.Printf("FAIL: ... %d failures in all\n", len(r.failures))
	}
	line, _ := json.Marshal(r)
	fmt.Println(strings.TrimSpace(string(line)))
}
