// Command perfbench is the repository's benchmark: it runs one workload
// of the hypercube runtime for a fixed time, checks every output against
// its own recomputation, and prints the metrics as one JSON line.
//
//	perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//
// With --trace 0 it prints the end-to-end metrics; with --trace 1 it
// alternates traced and untraced operations, prints the per-layer
// metrics and the tracing overhead, and writes the spans it recorded to
// .bench_build/traces/. README.md maps every metric to its layer.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"time"
)

// metricDef names one reported metric and its unit.
type metricDef struct{ name, unit string }

// endToEnd are the metrics a user of the runtime sees, printed by every
// untraced run of every workload.
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"latency_p50_ms", "ms"},
	{"latency_p90_ms", "ms"},
	{"goodput_mb_s", "MB/s"},
	{"xmits_per_s", "1/s"},
	{"peak_rss_mb", "MB"},
}

// perLayer are the metrics of single layers, printed by traced runs. A
// layer a workload does not exercise reads 0 on that workload.
var perLayer = []metricDef{
	{"comm.call_p50_us", "us"},
	{"comm.skew_p50_us", "us"},
	{"comm.allocs_per_call", "count"},
	{"comm.inproc_call_p50_us", "us"},
	{"transport.frames_per_op", "count"},
	{"transport.payload_bytes_per_frame", "B"},
	{"transport.wire_bytes_per_payload_byte", "ratio"},
	{"transport.tau_us", "us"},
	{"transport.tc_ns_per_byte", "ns/B"},
	{"wire.encode_ns_per_frame", "ns"},
	{"wire.decode_ns_per_frame", "ns"},
	{"wire.encode_mb_s", "MB/s"},
	{"mpx.hop_ns", "ns"},
	{"sched.plan_steps", "count"},
	{"svc.queue_wait_p50_ms", "ms"},
	{"svc.queue_wait_p90_ms", "ms"},
	{"svc.run_p50_ms", "ms"},
	{"svc.submit_us", "us"},
	{"svc.retained_kb_per_job", "KB"},
	{"load.late_p99_ms", "ms"},
	{"load.late_max_ms", "ms"},
	{"core.schedule_ms_per_point", "ms"},
	{"core.alloc_bytes_per_xmit", "B"},
	{"sim.run_ms_per_point", "ms"},
	{"sim.engine_xmits_per_s", "1/s"},
	{"model.efficiency", "ratio"},
	{"runtime.gc_cpu_fraction", "ratio"},
	{"runtime.alloc_mb_per_s", "MB/s"},
	{"runtime.sched_latency_p50_us", "us"},
	{"runtime.sched_latency_p99_us", "us"},
	{"runtime.goroutines_peak", "count"},
	{"trace.overhead_pct", "%"},
}

// workload is one set of inputs the benchmark runs.
type workload struct {
	name    string
	backend string
	run     func(e *env) (*result, error)
}

var workloads = []workload{
	{"bcast-bulk", "loopback TCP (127.0.0.1; no traffic leaves the host), d=4 mesh of 16 ranks in one process", runBcastBulk},
	{"alltoall-small", "Unix-domain sockets, d=4 mesh of 16 ranks in one process", runAllToAllSmall},
	{"service-mix", "Unix-domain sockets, one svc runtime per rank on a d=4 comm.StartCluster", runServiceMix},
	{"paper-sim", "discrete-event simulator (sim.Run) of a one-port full-duplex d=8 machine; no sockets", runPaperSim},
}

// env is what a workload runs with.
type env struct {
	seed     int64
	seconds  float64
	traced   bool
	tr       *tracer
	progress progress
}

// tracerFor returns the tracer for operation i: in a traced run every
// other operation is traced, so the untraced ones measure the overhead
// in the same process; untraced runs trace nothing.
func (e *env) tracerFor(i int) *tracer {
	if e.traced && i%2 == 1 {
		return e.tr
	}
	return nil
}

// progress counts operations as they go, for the watchdog.
type progress struct {
	attempted, done, failed atomic.Int64
}

// result is what a workload measured.
type result struct {
	correct           bool
	attempted, failed int
	metrics           map[string]float64
	notes             []string
}

func (r *result) note(format string, args ...any) {
	r.notes = append(r.notes, fmt.Sprintf(format, args...))
}

func newResult() *result { return &result{correct: true, metrics: map[string]float64{}} }

type metricOut struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type output struct {
	Correct   bool                 `json:"correct"`
	Attempted int                  `json:"attempted"`
	Failed    int                  `json:"failed"`
	Metrics   map[string]metricOut `json:"metrics"`
}

var (
	emitMu  sync.Mutex
	emitted bool
)

// emit prints the result line once; the watchdog and the normal path
// race for it.
func emit(res *result, defs []metricDef) bool {
	emitMu.Lock()
	defer emitMu.Unlock()
	if emitted {
		return false
	}
	emitted = true
	for _, n := range res.notes {
		fmt.Println("# " + n)
	}
	out := output{Correct: res.correct, Attempted: res.attempted, Failed: res.failed, Metrics: map[string]metricOut{}}
	for _, d := range defs {
		v := res.metrics[d.name]
		if math.IsNaN(v) || math.IsInf(v, 0) {
			v = 0
		}
		out.Metrics[d.name] = metricOut{Value: v, Unit: d.unit}
	}
	line, err := json.Marshal(out)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
	return true
}

// watchdog ends a stalled run: it writes every goroutine's stack to
// standard error, counts every unfinished operation as failed and
// prints the result, so a hang in the program ends the run instead of
// hanging it.
func watchdog(e *env, limit time.Duration, defs []metricDef) *time.Timer {
	return time.AfterFunc(limit, func() {
		buf := make([]byte, 8<<20)
		buf = buf[:runtime.Stack(buf, true)]
		fmt.Fprintf(os.Stderr, "perfbench: watchdog: run exceeded %v; goroutines:\n%s\n", limit, buf)
		attempted := e.progress.attempted.Load()
		done := e.progress.done.Load()
		res := newResult()
		res.attempted = int(max(attempted, 1))
		res.failed = int(attempted - done + e.progress.failed.Load())
		res.note("watchdog fired after %v: %d of %d operations unfinished", limit, attempted-done, attempted)
		if emit(res, defs) {
			os.Exit(0)
		}
	})
}

func kernelRelease() string {
	var u syscall.Utsname
	if err := syscall.Uname(&u); err != nil {
		return "unknown"
	}
	var b strings.Builder
	for _, c := range u.Release {
		if c == 0 {
			break
		}
		b.WriteByte(byte(c))
	}
	return b.String()
}

// workDir holds everything a run writes, relative to the checkout root
// the benchmark runs from.
const workDir = ".bench_build"

func main() {
	name := flag.String("workload", "", "workload to run")
	seed := flag.Int64("seed", 1, "workload seed")
	seconds := flag.Float64("seconds", 10, "measured seconds")
	trace := flag.Int("trace", 0, "1 to record spans and print per-layer metrics")
	flag.Parse()

	var w *workload
	var names []string
	for i := range workloads {
		names = append(names, workloads[i].name)
		if workloads[i].name == *name {
			w = &workloads[i]
		}
	}
	if w == nil || *seconds <= 0 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(os.Stderr, "perfbench: need --workload (%s), --seconds > 0 and --trace 0|1\n", strings.Join(names, ", "))
		os.Exit(2)
	}
	// Unix-domain socket paths are length-limited, so transports make
	// their socket directories under a short path relative to the
	// checkout root rather than under the system temp directory.
	tmp := filepath.Join(workDir, "tmp")
	if err := os.MkdirAll(tmp, 0o755); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	os.Setenv("TMPDIR", tmp)

	fmt.Printf("# perfbench workload=%s seed=%d seconds=%g trace=%d\n", w.name, *seed, *seconds, *trace)
	fmt.Printf("# host nproc=%d GOMAXPROCS=%d go=%s kernel=%s %s/%s\n",
		runtime.NumCPU(), runtime.GOMAXPROCS(0), runtime.Version(), kernelRelease(), runtime.GOOS, runtime.GOARCH)
	for _, wl := range workloads {
		fmt.Printf("# backend %s: %s\n", wl.name, wl.backend)
	}

	e := &env{seed: *seed, seconds: *seconds, traced: *trace == 1}
	defs := endToEnd
	if e.traced {
		e.tr = newTracer()
		defs = perLayer
	}
	// The whole run — set-up, measurement, checks — must end well inside
	// the 180 s a run may take.
	limit := min(time.Duration(*seconds*float64(time.Second))+90*time.Second, 170*time.Second)
	dog := watchdog(e, limit, defs)

	res, err := w.run(e)
	if err != nil {
		dog.Stop()
		fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", w.name, err)
		os.Exit(1)
	}
	if e.traced {
		path := filepath.Join(workDir, "traces", fmt.Sprintf("%s-seed%d.jsonl", w.name, *seed))
		if err := e.tr.write(path); err != nil {
			fmt.Fprintln(os.Stderr, "perfbench: writing trace:", err)
		} else {
			kept, dropped := e.tr.count()
			res.note("trace: %d spans written to %s (%d dropped past the cap)", kept, path, dropped)
		}
	}
	dog.Stop()
	if !emit(res, defs) {
		// The watchdog fired first; it prints the stalled result and exits.
		select {}
	}
}
