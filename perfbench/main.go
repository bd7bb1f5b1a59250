// Command perfbench is the repository's benchmark. One invocation runs one
// named workload in a single process, checks every output it produces, and
// prints its metrics by name and unit; the last line of standard output is
// one JSON object with the verdict and the metrics.
//
//	perfbench --workload mesh|gates|serve --seed N --seconds S --trace 0|1
//
// With --trace 0 the workload runs untraced and the end-to-end metrics are
// reported. With --trace 1 the traced run executes instead: it records spans
// and counters around every call the benchmark makes into a layer, for all
// three workloads, and reports the per-layer metrics. README.md explains the
// workloads, the metrics and how to read a traced run.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// options are the knobs of one invocation. The sizes below the flags are
// fixed by the benchmark; tests shrink them to keep a held-out-seed check
// short.
type options struct {
	seed    uint64
	seconds float64
	dir     string // scratch directory: serve's cache dirs and the span file

	setupReps   int     // set-ups per run; setup_s is their median
	meshMinOps  int     // mesh measures whole mix cycles until at least this many ops
	serveTraced float64 // seconds of open-loop load in the traced serve pass
	ladderStep  float64 // seconds per rate on the max-rate ladder
}

func defaultOptions() options {
	return options{
		setupReps:   5,
		meshMinOps:  100,
		serveTraced: 6,
		ladderStep:  2,
	}
}

// workloads maps each workload name to its untraced measurement.
var workloads = map[string]func(options) *measurement{
	"mesh":  measureMesh,
	"gates": measureGates,
	"serve": measureServe,
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	workload := fs.String("workload", "", "workload to run: mesh, gates or serve")
	seed := fs.Uint64("seed", 1, "workload seed; every generated input derives from it")
	seconds := fs.Int("seconds", 30, "measured seconds per run")
	trace := fs.Int("trace", 0, "0 = untraced run, end-to-end metrics; 1 = traced run, per-layer metrics")
	dir := fs.String("dir", ".bench_build", "scratch directory for cache dirs and the traced run's span file")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	measure, ok := workloads[*workload]
	if !ok {
		fmt.Fprintf(stderr, "perfbench: unknown workload %q (want mesh, gates or serve)\n", *workload)
		return 2
	}
	if *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(stderr, "perfbench: --seconds must be >= 1 and --trace 0 or 1")
		return 2
	}
	if err := os.MkdirAll(*dir, 0o755); err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}
	o := defaultOptions()
	o.seed, o.seconds, o.dir = *seed, float64(*seconds), *dir

	var rep *report
	if *trace == 1 {
		rep = runTraced(o, stdout)
	} else {
		rep = measure(o).report(stdout)
	}
	for _, e := range rep.errs {
		fmt.Fprintf(stderr, "perfbench: check failed: %s\n", e)
	}
	line, err := json.Marshal(rep)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: encoding result: %v\n", err)
		return 1
	}
	fmt.Fprintf(stdout, "%s\n", line)
	if !rep.Correct {
		return 1
	}
	return 0
}

// metric is one reported figure.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// report is the final JSON line.
type report struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
	errs      []string
}

// tally counts attempted and failed ops and keeps the first failure
// messages. It is safe for concurrent use.
type tally struct {
	mu        sync.Mutex
	attempted int
	failed    int
	errs      []string
}

// op records one attempted op; a non-nil err marks it failed.
func (t *tally) op(err error) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.attempted++
	if err != nil {
		t.failed++
		if len(t.errs) < 10 {
			t.errs = append(t.errs, err.Error())
		}
	}
}

// ops records n attempted ops that all share the verdict err.
func (t *tally) ops(n int, err error) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.attempted += n
	if err != nil {
		t.failed += n
		if len(t.errs) < 10 {
			t.errs = append(t.errs, err.Error())
		}
	}
}

// add merges another tally's counts and messages into t.
func (t *tally) add(o *tally) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.attempted += o.attempted
	t.failed += o.failed
	t.errs = append(t.errs, o.errs...)
}

// fail records a check failure that is not tied to an op: the run is
// wrong, but no op count changes.
func (t *tally) fail(err error) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.errs = append(t.errs, err.Error())
}

// measurement is what one untraced workload run yields.
type measurement struct {
	tally
	setup   []float64 // seconds, one per set-up repetition
	latMs   []float64 // per-op latency samples, verified ops only
	good    int       // verified ops within the workload's latency limit
	elapsed float64   // measured seconds
	alloc   uint64    // bytes allocated while measuring
	rssMB   []float64 // resident set samples while measuring
	extra   []string  // workload-specific figures printed before the JSON line
}

// report derives the end-to-end metrics and prints them with their sample
// counts, followed by the workload's own figures.
func (m *measurement) report(w io.Writer) *report {
	ok := m.attempted - m.failed
	lat := sorted(m.latMs)
	met := map[string]metric{
		"setup_s":            {median(m.setup), "s"},
		"ops_per_s":          {ratio(float64(ok), m.elapsed), "op/s"},
		"op_p50_ms":          {nearestRank(lat, 50), "ms"},
		"op_p90_ms":          {nearestRank(lat, 90), "ms"},
		"goodput_per_s":      {ratio(float64(m.good), m.elapsed), "op/s"},
		"alloc_bytes_per_op": {ratio(float64(m.alloc), float64(m.attempted)), "B/op"},
		"rss_mb":             {median(m.rssMB), "MB"},
	}
	fmt.Fprintf(w, "# ops attempted %d, failed %d, measured %.3f s\n", m.attempted, m.failed, m.elapsed)
	fmt.Fprintf(w, "# op latency samples n=%d (p90 has %d samples beyond it)\n", len(lat), len(lat)-int(math.Ceil(0.9*float64(len(lat)))))
	fmt.Fprintf(w, "# setup repetitions n=%d: %v s\n", len(m.setup), m.setup)
	fmt.Fprintf(w, "# resident set sampled n=%d times while measuring; peak of the process %.1f MB\n", len(m.rssMB), maxRSSMB())
	for _, e := range m.extra {
		fmt.Fprintf(w, "# %s\n", e)
	}
	printMetrics(w, met)
	return &report{
		Correct:   len(m.errs) == 0 && m.failed == 0 && m.attempted > 0,
		Attempted: m.attempted,
		Failed:    m.failed,
		Metrics:   met,
		errs:      m.errs,
	}
}

func printMetrics(w io.Writer, met map[string]metric) {
	names := make([]string, 0, len(met))
	for n := range met {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		fmt.Fprintf(w, "%-32s %16.6g %s\n", n, met[n].Value, met[n].Unit)
	}
}

// sorted returns an ascending copy.
func sorted(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

// nearestRank is the exact nearest-rank percentile of ascending samples:
// the smallest sample with at least p% of the samples at or below it. It
// returns 0 for no samples (a run without samples fails its checks).
func nearestRank(asc []float64, p float64) float64 {
	if len(asc) == 0 {
		return 0
	}
	r := int(math.Ceil(p / 100 * float64(len(asc))))
	if r < 1 {
		r = 1
	}
	return asc[r-1]
}

func median(xs []float64) float64 { return nearestRank(sorted(xs), 50) }

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// rssSampler samples the process's resident set every 100 ms until
// stopped.
type rssSampler struct {
	stopc chan struct{}
	done  chan struct{}
	mb    []float64
}

func startRSS() *rssSampler {
	r := &rssSampler{stopc: make(chan struct{}), done: make(chan struct{})}
	go func() {
		defer close(r.done)
		tick := time.NewTicker(100 * time.Millisecond)
		defer tick.Stop()
		for {
			if mb, err := rssMB(); err == nil {
				r.mb = append(r.mb, mb)
			}
			select {
			case <-tick.C:
			case <-r.stopc:
				return
			}
		}
	}()
	return r
}

// stop ends the sampling and returns the samples in MiB.
func (r *rssSampler) stop() []float64 {
	close(r.stopc)
	<-r.done
	return r.mb
}

// rssMB reads the current resident set in MiB from /proc/self/statm.
func rssMB() (float64, error) {
	data, err := os.ReadFile("/proc/self/statm")
	if err != nil {
		return 0, err
	}
	f := strings.Fields(string(data))
	if len(f) < 2 {
		return 0, fmt.Errorf("statm: %q", data)
	}
	pages, err := strconv.ParseUint(f[1], 10, 64)
	if err != nil {
		return 0, err
	}
	return float64(pages*uint64(os.Getpagesize())) / (1 << 20), nil
}

// maxRSSMB is the process's peak resident set in MiB (Linux reports
// ru_maxrss in KiB).
func maxRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024
}

// totalAlloc is the process's cumulative heap allocation in bytes.
func totalAlloc() uint64 {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.TotalAlloc
}
