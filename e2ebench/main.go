// Command e2ebench is the repository's end-to-end benchmark. It runs one
// named workload through the public Go APIs of the simulator, the harness,
// the cell store, the service and the fabric, checks that every output is
// correct, and prints one JSON result line:
//
//	e2ebench --workload sweep-cold --seed 1 --seconds 15 --trace 0
//
// With --trace 0 the line carries the end-to-end metrics, measured with no
// per-call timing attached. With --trace 1 a separate traced run prints the
// per-layer metrics. Every timing is taken from outside the program: around
// calls into each package's exported functions, or through the hooks the
// harness already exports. README.md explains the workloads and the metrics.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"sort"
	"time"
)

// metricDef names one printed metric and its unit. The two lists below are
// the benchmark's contract with BENCHMARK.json; the smoke test keeps them
// in step.
type metricDef struct{ name, unit string }

var endToEnd = []metricDef{
	{"wall_s", "s"},
	{"retained_heap_mb", "MB"},
	{"setup_s", "s"},
	{"req_per_s", "1/s"},
	{"req_p50_ms", "ms"},
	{"req_p90_ms", "ms"},
	{"restart_ms", "ms"},
}

var perLayer = []metricDef{
	{"error_rate", "ratio"},
	{"process.peak_rss_mb", "MB"},
	{"system.cells", "count"},
	{"system.build_ms", "ms"},
	{"system.warmup_ms", "ms"},
	{"system.timed_ms", "ms"},
	{"system.collect_ms", "ms"},
	{"system.warmup_ns_per_access", "ns"},
	{"system.timed_ns_per_event", "ns"},
	{"system.warmup_self_ms", "ms"},
	{"system.timed_self_ms", "ms"},
	{"system.allocs_per_event", "allocs/op"},
	{"system.allocs_per_warmup_access", "allocs/op"},
	{"system.minst_per_s", "Minst/s"},
	{"system.trace_overhead_ratio", "ratio"},
	{"trace.next_calls", "count"},
	{"trace.next_ns", "ns"},
	{"mc.warm_calls", "count"},
	{"mc.warm_ns", "ns"},
	{"mc.access_calls", "count"},
	{"mc.access_ns", "ns"},
	{"mc.cte_hit_rate", "ratio"},
	{"mc.audit_violations", "count"},
	{"cache.l3_access_ns", "ns"},
	{"cache.l3_fill_ns", "ns"},
	{"cache.l3_hit_rate", "ratio"},
	{"cache.allocs_per_op", "allocs/op"},
	{"tlb.lookup_ns", "ns"},
	{"tlb.walk_ns", "ns"},
	{"tlb.miss_rate", "ratio"},
	{"tlb.allocs_per_walk", "allocs/op"},
	{"dram.submit_ns", "ns"},
	{"dram.row_hit_rate", "ratio"},
	{"dram.allocs_per_request", "allocs/op"},
	{"engine.event_ns", "ns"},
	{"engine.events", "count"},
	{"engine.allocs_per_event", "allocs/op"},
	{"harness.cell_queue_ms", "ms"},
	{"harness.cell_exec_ms", "ms"},
	{"harness.plan_ms", "ms"},
	{"harness.export_ms", "ms"},
	{"cellstore.put_ms", "ms"},
	{"cellstore.open_ms", "ms"},
	{"cellstore.get_us", "us"},
	{"cellstore.hit_rate", "ratio"},
	{"cellstore.allocs_per_get", "allocs/op"},
	{"serve.queue_ms", "ms"},
	{"serve.run_ms", "ms"},
	{"serve.export_ms", "ms"},
	{"serve.req_p99_ms", "ms"},
	{"fabric.execute_ms", "ms"},
	{"fabric.dispatches", "count"},
	{"fabric.retries", "count"},
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the benchmark's one-line verdict.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// options carries one invocation's settings into a workload.
type options struct {
	seed    int64
	seconds time.Duration
	traced  bool
	// tiny shrinks every workload to a few milliseconds of simulation; the
	// smoke test uses it to check the output schema quickly.
	tiny bool
	// scratch is a private directory for cell stores, removed on exit.
	scratch string
	log     io.Writer
}

// workload runs one named load and fills the values of every metric the
// mode prints.
type workload struct {
	name string
	why  string
	run  func(o *options, out *outcome) error
}

// outcome accumulates one run's counts, values and failed checks.
type outcome struct {
	attempted, failed int
	checks            []string
	values            map[string]float64
}

// fail records a failed output check.
func (oc *outcome) fail(format string, args ...any) {
	oc.checks = append(oc.checks, fmt.Sprintf(format, args...))
}

func (oc *outcome) set(name string, v float64) { oc.values[name] = v }

var workloads = []workload{
	{"sweep-cold", "cold regeneration of every experiment on bfs into a fresh cell store; warmup dominates", runSweepCold},
	{"window-long", "short warmup, long timed window, all four designs on mcf and canneal; the timed window dominates", runWindowLong},
	{"serve-warm", "restart the service and fabric over a warm cell store and serve seeded multi-experiment requests; no simulation", runServeWarm},
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr, false))
}

// run parses args, runs the workload and prints the result line. It returns
// the process exit code: 0 when the run completed and every check passed, 1
// when a check failed or the run could not complete, 2 on bad arguments.
func run(args []string, stdout, stderr io.Writer, tiny bool) int {
	fs := flag.NewFlagSet("e2ebench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload to run: sweep-cold, window-long or serve-warm")
	seed := fs.Int64("seed", 1, "seed for every generated input")
	seconds := fs.Int("seconds", 15, "seconds to measure for")
	trace := fs.Int("trace", 0, "0 prints end-to-end metrics; 1 prints per-layer metrics from a traced run")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	var w *workload
	for i := range workloads {
		if workloads[i].name == *name {
			w = &workloads[i]
		}
	}
	if w == nil || *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(stderr, "e2ebench: need --workload (sweep-cold, window-long, serve-warm), --seconds >= 1 and --trace 0|1\n")
		return 2
	}
	scratch, err := os.MkdirTemp("", "e2ebench-")
	if err != nil {
		fmt.Fprintf(stderr, "e2ebench: %v\n", err)
		return 1
	}
	defer os.RemoveAll(scratch)

	o := &options{
		seed:    *seed,
		seconds: time.Duration(*seconds) * time.Second,
		traced:  *trace == 1,
		tiny:    tiny,
		scratch: scratch,
		log:     stderr,
	}
	oc := &outcome{values: map[string]float64{}}
	if err := w.run(o, oc); err != nil {
		fmt.Fprintf(stderr, "e2ebench: %s: %v\n", w.name, err)
		return 1
	}
	oc.set("process.peak_rss_mb", peakRSSMB())
	defs := endToEnd
	if o.traced {
		defs = perLayer
	}
	res := result{Correct: len(oc.checks) == 0, Attempted: oc.attempted, Failed: oc.failed,
		Metrics: map[string]metric{}}
	for _, c := range oc.checks {
		fmt.Fprintf(stderr, "e2ebench: check failed: %s\n", c)
	}
	if !res.Correct {
		// An output-check failure invalidates every operation of the run.
		res.Failed = res.Attempted
	}
	if o.traced {
		oc.set("error_rate", ratio(float64(res.Failed), float64(res.Attempted)))
	}
	var missing []string
	for _, d := range defs {
		v, ok := oc.values[d.name]
		if !ok {
			missing = append(missing, d.name)
			continue
		}
		res.Metrics[d.name] = metric{Value: v, Unit: d.unit}
	}
	if len(missing) > 0 {
		sort.Strings(missing)
		fmt.Fprintf(stderr, "e2ebench: %s measured no value for %v\n", w.name, missing)
		return 1
	}
	if res.Attempted < 1 {
		fmt.Fprintf(stderr, "e2ebench: %s attempted no operation\n", w.name)
		return 1
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintf(stderr, "e2ebench: %v\n", err)
		return 1
	}
	fmt.Fprintln(stdout, string(line))
	if !res.Correct {
		return 1
	}
	return 0
}
