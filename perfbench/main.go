// Command perfbench is TinMan's benchmark: one command that drives the
// system through its public packages on a named workload, checks every
// output, and prints each metric by name with its unit.
//
//	go run . --workload login --seed 1 --seconds 10 --trace 0
//
// With --trace 0 it prints the end-to-end metrics; with --trace 1 it runs
// the workload twice with the same seed, each for half of --seconds,
// untraced and then with the CPU profile and the program's obs tracer
// attached, and prints the per-layer metrics. The last line of standard output is one JSON object:
//
//	{"correct": true, "attempted": N, "failed": 0, "metrics": {...}}
//
// README.md lists the workloads, the metrics and which layer each
// per-layer metric belongs to.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/metrics"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// config is one invocation's settings.
type config struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	// workdir holds the durable fleet's store directories; it must lie
	// inside the checkout the benchmark runs from.
	workdir string
}

// metric is one named measurement with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// report is what a workload run produces: its op counts, its metrics, and
// the output checks that failed (any entry makes the run incorrect).
type report struct {
	attempted int64
	failed    int64
	metrics   map[string]metric
	problems  []string
}

func newReport() *report { return &report{metrics: map[string]metric{}} }

func (r *report) set(name string, v float64, unit string) {
	r.metrics[name] = metric{Value: v, Unit: unit}
}

// problem records a failed output check. A check failing on every request
// records its first few failures only.
func (r *report) problem(format string, args ...any) {
	if len(r.problems) < 20 {
		r.problems = append(r.problems, fmt.Sprintf(format, args...))
	}
}

// workloads maps each workload name to its runner.
var workloads = map[string]func(config) (*report, error){
	"login":         runLogin,
	"node":          func(c config) (*report, error) { return runNodeLoad(c, false) },
	"fleet_durable": func(c config) (*report, error) { return runNodeLoad(c, true) },
}

func main() {
	var cfg config
	var trace int
	flag.StringVar(&cfg.workload, "workload", "", "workload: login, node or fleet_durable")
	flag.Int64Var(&cfg.seed, "seed", 1, "workload seed")
	flag.Float64Var(&cfg.seconds, "seconds", 10, "measured seconds per run")
	flag.IntVar(&trace, "trace", 0, "1: traced run printing per-layer metrics")
	flag.StringVar(&cfg.workdir, "workdir", ".bench_build", "directory for on-disk stores")
	flag.Parse()
	cfg.trace = trace == 1

	run, ok := workloads[cfg.workload]
	if !ok || cfg.seconds <= 0 || (trace != 0 && trace != 1) {
		fmt.Fprintf(os.Stderr, "perfbench: bad arguments (workload %q, seconds %v, trace %d)\n", cfg.workload, cfg.seconds, trace)
		os.Exit(2)
	}
	if _, _, err := cpuTicks(); err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: reading stolen CPU time: %v\n", err)
		os.Exit(1)
	}
	rep, err := run(cfg)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", cfg.workload, err)
		os.Exit(1)
	}
	printReport(rep, cfg.trace)
	if len(rep.problems) > 0 {
		os.Exit(1)
	}
}

// printReport writes one human-readable line per measured metric and per
// failed check, then the result object as the last line.
func printReport(rep *report, traced bool) {
	result := resultMetrics(rep, traced)
	for _, n := range sortedNames(rep.metrics) {
		m := rep.metrics[n]
		fmt.Printf("# %-36s %14.4f %s\n", n, m.Value, m.Unit)
	}
	for _, p := range rep.problems {
		fmt.Printf("# CHECK FAILED: %s\n", p)
	}
	out, err := json.Marshal(struct {
		Correct   bool              `json:"correct"`
		Attempted int64             `json:"attempted"`
		Failed    int64             `json:"failed"`
		Metrics   map[string]metric `json:"metrics"`
	}{len(rep.problems) == 0, rep.attempted, rep.failed, result})
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: encoding result: %v\n", err)
		os.Exit(1)
	}
	fmt.Println(string(out))
}

// --- process counters ---

// usage is a snapshot of the process's cost counters, taken at phase
// boundaries.
type usage struct {
	wall    time.Time
	cpu     time.Duration // user + system
	mallocs uint64
	gcCPU   float64 // runtime/metrics GC CPU seconds
	allCPU  float64 // runtime/metrics total CPU seconds
	busy    uint64  // all vCPUs' busy clock ticks
	stolen  uint64  // all vCPUs' stolen clock ticks
}

var cpuSamples = []metrics.Sample{
	{Name: "/cpu/classes/gc/total:cpu-seconds"},
	{Name: "/cpu/classes/total:cpu-seconds"},
}

func takeUsage() usage {
	busy, stolen, _ := cpuTicks() // main checked that /proc/stat reads
	var ru syscall.Rusage
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &ru) // cannot fail for RUSAGE_SELF
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	metrics.Read(cpuSamples)
	return usage{
		wall:    time.Now(),
		cpu:     time.Duration(ru.Utime.Nano() + ru.Stime.Nano()),
		mallocs: ms.Mallocs,
		gcCPU:   cpuSamples[0].Value.Float64(),
		allCPU:  cpuSamples[1].Value.Float64(),
		busy:    busy,
		stolen:  stolen,
	}
}

// cpuTicks reads the clock ticks all vCPUs spent busy and the ticks the
// hypervisor stole from them while they had work: the first line of
// /proc/stat is "cpu user nice system idle iowait irq softirq steal ...".
func cpuTicks() (busy, stolen uint64, err error) {
	b, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0, 0, err
	}
	line, _, _ := strings.Cut(string(b), "\n")
	f := strings.Fields(line)
	if len(f) < 9 || f[0] != "cpu" {
		return 0, 0, fmt.Errorf("perfbench: /proc/stat starts with %q", line)
	}
	var t [8]uint64
	for i := range t {
		if t[i], err = strconv.ParseUint(f[i+1], 10, 64); err != nil {
			return 0, 0, fmt.Errorf("perfbench: /proc/stat: %w", err)
		}
	}
	return t[0] + t[1] + t[2] + t[5] + t[6], t[7], nil
}

// span is the cost between two usage snapshots.
type span struct{ from, to usage }

// costs sums the cost of one or more spans.
type costs struct {
	wall, cpu     time.Duration
	mallocs       float64
	gcCPU, allCPU float64
	busy, stolen  float64
}

func (c *costs) add(s span) {
	f, t := s.from, s.to
	c.plus(costs{t.wall.Sub(f.wall), t.cpu - f.cpu, float64(t.mallocs - f.mallocs),
		t.gcCPU - f.gcCPU, t.allCPU - f.allCPU, float64(t.busy - f.busy), float64(t.stolen - f.stolen)})
}

func (c *costs) plus(o costs) {
	c.wall += o.wall
	c.cpu += o.cpu
	c.mallocs += o.mallocs
	c.gcCPU += o.gcCPU
	c.allCPU += o.allCPU
	c.busy += o.busy
	c.stolen += o.stolen
}

// gcShare is the GC's share of the runtime's CPU time.
func (c costs) gcShare() float64 { return ratio(c.gcCPU, c.allCPU) }

// stealShare is the share of the time the vCPUs had work to run that the
// hypervisor gave to other machines instead.
func (c costs) stealShare() float64 { return ratio(c.stolen, c.busy+c.stolen) }

// vmWall is the wall time less its stolen share: how long the phase took
// while the virtual machine was running.
func (c costs) vmWall() time.Duration { return unstolen(c.wall, c.stealShare()) }

// unstolen takes a steal share out of a wall-clock time.
func unstolen(d time.Duration, steal float64) time.Duration {
	return time.Duration(float64(d) * (1 - steal))
}

// setWallClock reports a measured phase's steal share, and its rate and
// latency as the wall clock read them, stolen time included.
func setWallClock(rep *report, steal, opsPerSec float64, latency time.Duration) {
	rep.set("host.steal_share", steal, "ratio")
	rep.set("loadgen.wall_ops_per_s", opsPerSec, "1/s")
	rep.set("loadgen.wall_latency_ms", ms(latency), "ms")
	fmt.Printf("# wall clock: ops_per_s %.4f latency_ms %.4f, %.1f%% of the vCPUs' busy time stolen\n",
		opsPerSec, ms(latency), 100*steal)
}

// phaseLength is how long each measured phase of a run lasts. A traced run
// measures the workload twice, untraced and then traced, so it splits
// --seconds between the two and takes as long as an untraced run.
func phaseLength(cfg config) time.Duration {
	d := time.Duration(cfg.seconds * float64(time.Second))
	if cfg.trace {
		d /= 2
	}
	return d
}

// --- statistics ---

// quantile returns the q-quantile of sorted samples by nearest rank.
func quantile(sorted []time.Duration, q float64) time.Duration {
	if len(sorted) == 0 {
		return 0
	}
	i := int(q*float64(len(sorted))+0.5) - 1
	if i < 0 {
		i = 0
	}
	if i >= len(sorted) {
		i = len(sorted) - 1
	}
	return sorted[i]
}

func sortDurations(d []time.Duration) {
	sort.Slice(d, func(i, j int) bool { return d[i] < d[j] })
}

// median returns the median of a few set-up timings.
func median(d []time.Duration) time.Duration {
	s := append([]time.Duration(nil), d...)
	sortDurations(s)
	if len(s)%2 == 1 {
		return s[len(s)/2]
	}
	return (s[len(s)/2-1] + s[len(s)/2]) / 2
}

// medianFloat returns the median of v, or 0 when v is empty.
func medianFloat(v []float64) float64 {
	if len(v) == 0 {
		return 0
	}
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	if len(s)%2 == 1 {
		return s[len(s)/2]
	}
	return (s[len(s)/2-1] + s[len(s)/2]) / 2
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }

// ratio returns a/b, or 0 when b is 0 (a layer the workload does not
// exercise).
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
