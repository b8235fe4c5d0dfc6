// Command perfbench is the repository's benchmark: one command that drives
// one of four workloads against the simulator and its service, checks every
// output it gets back against a reference computed outside the timed
// window, and prints the end-to-end metrics (or, with -trace 1, the
// per-layer metrics) with their units and sample counts. The last line of
// standard output is one JSON object:
//
//	{"correct": true, "attempted": N, "failed": 0, "metrics": {"name": {"value": v, "unit": u}, ...}}
//
// Workloads (BENCHMARK.json records why each exists):
//
//	kernel_large    core.NewBroadcast + (*core.Broadcast).Step at n=6.4e6, k=1e5, r=1
//	service_cold    2 closed-loop clients, unique-seed n=1024 k=16 runs over HTTP
//	service_repeat  same traffic shape against a restarted, disk-store-armed server
//	                whose LRU is smaller than the skewed spec pool
//	sweep_fleet     radius sweeps 1..7 through a coordinator and 2 workers
//
// BENCHMARK.json leaves service_repeat out: under it the service fails some
// ops. A result evicted from the LRU before its write-behind spill reaches
// the disk store is in neither tier for a while, so GET /v1/results answers
// 404 for a job already reported done (seeds 11-16 at 8 s show it). The
// command still runs it, as the reproduction.
//
// Every input is generated from -seed; the program sees only the specs.
// Run from the repository root through the wrapper, which builds first:
//
//	bash perfbench/run.sh --workload service_cold --seed 1 --seconds 10 --trace 0
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"strings"
)

// maxProcs pins GOMAXPROCS so figures from hosts with more cores stay
// comparable; it never exceeds the host's own count.
const maxProcs = 2

// clients is the closed-loop client count of the service workloads.
const clients = 2

// options is one invocation of the benchmark.
type options struct {
	workload string
	seed     uint64
	seconds  float64
	trace    bool
	// workdir receives the traced run's Chrome trace; scratch is the
	// run's own subdirectory of it (disk stores), removed at exit.
	workdir, scratch string
	// tamper, when non-nil, rewrites the benchmark's copy of each payload
	// before it is compared with its reference. Tests use it to prove the
	// correctness check trips; the program under test never sees it.
	tamper func([]byte) []byte
}

// workloads maps each workload name to the function that runs it.
var workloads = map[string]func(*options, *report) error{
	"kernel_large":   runKernel,
	"service_cold":   runServiceCold,
	"service_repeat": runServiceRepeat,
	"sweep_fleet":    runSweepFleet,
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	opt := &options{}
	fs.StringVar(&opt.workload, "workload", "", "workload: kernel_large|service_cold|service_repeat|sweep_fleet")
	fs.Uint64Var(&opt.seed, "seed", 1, "workload seed; every generated input derives from it")
	fs.Float64Var(&opt.seconds, "seconds", 10, "length of the measured window in seconds")
	traceFlag := fs.Int("trace", 0, "0: end-to-end metrics; 1: traced run with per-layer metrics")
	fs.StringVar(&opt.workdir, "workdir", ".bench_build", "directory for scratch files (stores, traces)")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if _, ok := workloads[opt.workload]; !ok || opt.seconds <= 0 || (*traceFlag != 0 && *traceFlag != 1) {
		fmt.Fprintln(stderr, "perfbench: need -workload kernel_large|service_cold|service_repeat|sweep_fleet, -seconds > 0 and -trace 0|1")
		return 2
	}
	opt.trace = *traceFlag == 1
	return execute(opt, stdout, stderr)
}

// execute runs one workload and prints its result; it returns the exit
// code: 0 when every op was correct, 1 otherwise.
func execute(opt *options, stdout, stderr io.Writer) int {
	if runtime.NumCPU() < maxProcs {
		runtime.GOMAXPROCS(runtime.NumCPU())
	} else {
		runtime.GOMAXPROCS(maxProcs)
	}
	if err := os.MkdirAll(opt.workdir, 0o755); err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	dir, err := os.MkdirTemp(opt.workdir, "run-")
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	defer os.RemoveAll(dir)
	opt.scratch = dir

	rep := newReport()
	printEnvironment(stdout, opt)
	if err := workloads[opt.workload](opt, rep); err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	if err := rep.print(stdout, opt.trace); err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	if rep.failed > 0 {
		fmt.Fprintf(stderr, "perfbench: %d of %d ops failed\n", rep.failed, rep.attempted)
		return 1
	}
	return 0
}

// printEnvironment writes the environment block: everything a later reader
// needs to know a figure was taken under comparable conditions.
func printEnvironment(w io.Writer, opt *options) {
	fmt.Fprintf(w, "# perfbench workload=%s seed=%d seconds=%g trace=%v\n", opt.workload, opt.seed, opt.seconds, opt.trace)
	fmt.Fprintf(w, "# env nproc=%d GOMAXPROCS=%d go=%s cpu=%q os=%s/%s\n",
		runtime.NumCPU(), runtime.GOMAXPROCS(0), runtime.Version(), cpuModel(), runtime.GOOS, runtime.GOARCH)
	fmt.Fprintf(w, "# sizes %s\n", workloadSizes[opt.workload])
}

// workloadSizes describes each workload's inputs for the environment block.
var workloadSizes = map[string]string{
	"kernel_large":   fmt.Sprintf("n=%d k=%d r=%d lazy walk, parallelism auto, op=one Step", kernelNodes, kernelAgents, kernelRadius),
	"service_cold":   fmt.Sprintf("n=%d k=%d reps=1 unique seeds, clients=%d, op=POST+polls+GET", serviceNodes, serviceAgents, clients),
	"service_repeat": fmt.Sprintf("n=%d k=%d reps=1 metrics=curve, pool=%d zipf s=%g, fresh=%g%%, lru=%d, clients=%d", serviceNodes, serviceAgents, repeatPool, repeatZipfS, repeatFreshShare*100, repeatLRU, clients),
	"sweep_fleet":    fmt.Sprintf("n=%d k=%d radius 1..7, workers=%d, clients=%d, op=POST sweep+polls", serviceNodes, serviceAgents, fleetWorkers, clients),
}

func cpuModel() string {
	data, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	for _, line := range strings.Split(string(data), "\n") {
		if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// setPeakRSS records the process's peak resident set so far (VmHWM) in
// MB, falling back to the Go runtime's view of memory obtained from the
// OS. Workloads call it when their measured windows end, before the
// benchmark computes references.
func (r *report) setPeakRSS() {
	r.set("rss_peak_mb", "MB", 1, peakRSSMB())
}

func peakRSSMB() float64 {
	if data, err := os.ReadFile("/proc/self/status"); err == nil {
		for _, line := range strings.Split(string(data), "\n") {
			if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
				var kb float64
				if _, err := fmt.Sscanf(strings.TrimSpace(rest), "%f kB", &kb); err == nil {
					return kb / 1024
				}
			}
		}
	}
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return float64(ms.Sys) / (1 << 20)
}

// metric is one reported figure. n is the sample count behind it, printed
// beside the value; it is not part of the JSON contract.
type metric struct {
	value float64
	unit  string
	n     int
}

// report collects one run's figures. End-to-end metrics are the ones named
// in endToEnd; everything else set on the report is per-layer.
type report struct {
	attempted, failed int
	metrics           map[string]metric
	notes             []string
}

func newReport() *report { return &report{metrics: make(map[string]metric)} }

// endToEnd names the metrics a user of the system sees, in print order.
var endToEnd = []string{"ops_per_s", "p50_ms", "p90_ms", "setup_s", "rss_peak_mb"}

func (r *report) set(name, unit string, n int, v float64) {
	r.metrics[name] = metric{value: v, unit: unit, n: n}
}

// note records a line printed before the JSON result: a residual's base,
// why a metric reads zero, or a failed op.
func (r *report) note(format string, args ...any) {
	r.notes = append(r.notes, fmt.Sprintf(format, args...))
}

// print writes the human-readable table, then the JSON result line. The
// JSON carries the end-to-end metrics, or with trace the per-layer ones.
func (r *report) print(w io.Writer, trace bool) error {
	names := endToEnd
	if trace {
		names = nil
		for _, l := range perLayer {
			names = append(names, l.name)
			if _, ok := r.metrics[l.name]; !ok {
				r.set(l.name, l.unit, 0, 0)
				r.note("%s reads 0: this workload does not enter the layer (measured on %s)", l.name, l.workload)
			}
		}
	}
	frac := 0.0
	if r.attempted > 0 {
		frac = float64(r.failed) / float64(r.attempted)
	}
	fmt.Fprintf(w, "%-32s %14d %-6s\n", "attempted", r.attempted, "ops")
	fmt.Fprintf(w, "%-32s %14.6g %-6s (failed %d)\n", "failed_frac", frac, "ratio", r.failed)
	type entry struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	out := make(map[string]entry, len(names))
	for _, name := range names {
		m := r.metrics[name]
		fmt.Fprintf(w, "%-32s %14.6g %-6s n=%d\n", name, m.value, m.unit, m.n)
		out[name] = entry{Value: m.value, Unit: m.unit}
	}
	for _, n := range r.notes {
		fmt.Fprintln(w, "#", n)
	}
	line, err := json.Marshal(struct {
		Correct   bool             `json:"correct"`
		Attempted int              `json:"attempted"`
		Failed    int              `json:"failed"`
		Metrics   map[string]entry `json:"metrics"`
	}{r.failed == 0, r.attempted, r.failed, out})
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "%s\n", line)
	return err
}

// tracePath is where a traced run writes its Chrome trace.
func tracePath(opt *options) string {
	return filepath.Join(opt.workdir, "perfbench-trace-"+opt.workload+".json")
}
