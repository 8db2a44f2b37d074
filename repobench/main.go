// Command repobench is the repository benchmark of the lhws runtime. It
// runs one of three workloads against the latency-hiding runtime through
// its public API, checks every output, and prints each metric by name
// with its unit; the last line of standard output is one JSON object
// with the keys correct, attempted, failed and metrics.
//
//	repobench --workload fanout|mapreduce|server --seed N --seconds S --trace 0|1
//	repobench --compare OLD NEW
//
// With --trace 0 it reports the end-to-end metrics; with --trace 1 it
// reports the per-layer metrics and writes span files under
// .bench_build/spans. Compare mode reads two files of captured output and
// the bounds in ./BENCHMARK.json, and prints one verdict row per workload
// and metric. README.md describes the workloads and every metric.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	goruntime "runtime"
	"syscall"
	"time"

	"lhws"
	lhwsio "lhws/internal/io"
)

// workers is both the runtime's worker count and GOMAXPROCS: the load is
// sized for a 2-CPU host, and the load generator shares those CPUs.
const workers = 2

type config struct {
	workload string
	seed     uint64
	seconds  float64
	trace    bool
}

// measured returns the measuring budget as a duration scaled by share.
func (c config) measured(share float64) time.Duration {
	return time.Duration(c.seconds * share * float64(time.Second))
}

var workloads = map[string]func(config) *result{
	"fanout":    runFanout,
	"mapreduce": runMapReduce,
	"server":    runServer,
}

type metricVal struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is one run's outcome: the correctness verdict, operations
// attempted and failed, and the metrics in the order they were added.
type result struct {
	correct   bool
	attempted int64
	failed    int64
	order     []string
	metrics   map[string]metricVal
	problems  []string
	notes     []string
}

func newResult() *result { return &result{correct: true, metrics: map[string]metricVal{}} }

func (r *result) add(name string, v float64, unit string) {
	if math.IsNaN(v) || math.IsInf(v, 0) {
		r.fail("metric %s is not finite (%v)", name, v)
		v = 0
	}
	if _, dup := r.metrics[name]; !dup {
		r.order = append(r.order, name)
	}
	r.metrics[name] = metricVal{v, unit}
}

// note adds a line of context, such as a sample count, to the output.
func (r *result) note(format string, args ...any) {
	r.notes = append(r.notes, fmt.Sprintf(format, args...))
}

// fail marks the run incorrect: an output check did not hold.
func (r *result) fail(format string, args ...any) {
	r.correct = false
	r.problems = append(r.problems, fmt.Sprintf(format, args...))
}

var clockBase = time.Now()

// now is the benchmark's clock: monotonic nanoseconds since the process
// started.
func now() int64 { return int64(time.Since(clockBase)) }

// cpuNs is the process's user+system CPU time.
func cpuNs() int64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return ru.Utime.Nano() + ru.Stime.Nano()
}

type provenance struct {
	Workload   string  `json:"workload"`
	Seed       uint64  `json:"seed"`
	Seconds    float64 `json:"seconds"`
	Trace      bool    `json:"trace"`
	Host       string  `json:"host"`
	NumCPU     int     `json:"num_cpu"`
	GOMAXPROCS int     `json:"gomaxprocs"`
	GoVersion  string  `json:"go_version"`
	Commit     string  `json:"commit"`
	IOBackend  string  `json:"io_backend"`
}

// hostname is the kernel's node name.
func hostname() string {
	var u syscall.Utsname
	if err := syscall.Uname(&u); err != nil {
		return "unknown"
	}
	var b []byte
	for _, c := range u.Nodename {
		if c == 0 {
			break
		}
		b = append(b, byte(c))
	}
	return string(b)
}

// commit names the source revision: REPOBENCH_COMMIT, which run.sh sets
// from git when the checkout is a repository, else "unknown".
func commit() string {
	if c := os.Getenv("REPOBENCH_COMMIT"); c != "" {
		return c
	}
	return "unknown"
}

// ioBackend asks a throwaway one-worker run which readiness backend the
// I/O layer selects on this build.
func ioBackend() string {
	name := "unknown"
	_, err := lhws.RunTasks(lhws.RuntimeConfig{Workers: 1, Mode: lhws.LatencyHiding}, func(c *lhws.Ctx) {
		name = lhwsio.BackendName(c)
	})
	if err != nil {
		return "error: " + err.Error()
	}
	return name
}

func main() { os.Exit(run()) }

func run() int {
	var cfg config
	var trace int
	var compare bool
	flag.StringVar(&cfg.workload, "workload", "", "workload to run: fanout, mapreduce or server")
	flag.Uint64Var(&cfg.seed, "seed", 1, "seed the workload's inputs are generated from")
	flag.Float64Var(&cfg.seconds, "seconds", 10, "seconds of measurement")
	flag.IntVar(&trace, "trace", 0, "1 reports per-layer metrics from a traced run, 0 end-to-end metrics")
	flag.BoolVar(&compare, "compare", false, "compare two files of captured output: --compare OLD NEW")
	flag.Parse()

	if compare {
		if flag.NArg() != 2 {
			fmt.Fprintln(os.Stderr, "repobench: --compare needs two files: OLD NEW")
			return 2
		}
		if err := compareMain(os.Stdout, "BENCHMARK.json", flag.Arg(0), flag.Arg(1)); err != nil {
			fmt.Fprintln(os.Stderr, "repobench:", err)
			return 2
		}
		return 0
	}
	runWorkload, ok := workloads[cfg.workload]
	if !ok || (trace != 0 && trace != 1) || !(cfg.seconds > 0) {
		fmt.Fprintln(os.Stderr, "repobench: need --workload fanout|mapreduce|server, --trace 0|1 and --seconds > 0")
		return 2
	}
	cfg.trace = trace == 1
	goruntime.GOMAXPROCS(workers)

	prov := provenance{
		Workload: cfg.workload, Seed: cfg.seed, Seconds: cfg.seconds, Trace: cfg.trace,
		Host: hostname(), NumCPU: goruntime.NumCPU(), GOMAXPROCS: goruntime.GOMAXPROCS(0),
		GoVersion: goruntime.Version(), Commit: commit(), IOBackend: ioBackend(),
	}
	pj, _ := json.Marshal(map[string]provenance{"provenance": prov})
	fmt.Println(string(pj))

	res := runWorkload(cfg)
	for _, name := range res.order {
		m := res.metrics[name]
		fmt.Printf("metric %s %s = %.6g %s\n", cfg.workload, name, m.Value, m.Unit)
	}
	for _, n := range res.notes {
		fmt.Printf("note %s: %s\n", cfg.workload, n)
	}
	for _, p := range res.problems {
		fmt.Printf("CHECK FAIL %s: %s\n", cfg.workload, p)
	}
	out, err := json.Marshal(struct {
		Correct   bool                 `json:"correct"`
		Attempted int64                `json:"attempted"`
		Failed    int64                `json:"failed"`
		Metrics   map[string]metricVal `json:"metrics"`
	}{res.correct, res.attempted, res.failed, res.metrics})
	if err != nil {
		fmt.Fprintln(os.Stderr, "repobench: encode result:", err)
		return 2
	}
	fmt.Println(string(out))
	if !res.correct {
		return 1
	}
	return 0
}
