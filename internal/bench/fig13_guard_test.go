package bench

import (
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"testing"
	"time"

	"tinman/internal/taint"
	"tinman/internal/vm"
)

// TestFig13TracingGuard pins the observability cost on the Fig 13 hot path.
// The tracing-disabled interpreter (Hooks zero) pays exactly one nil check
// per Thread.Run, so its regression versus the pre-obs interpreter is
// bounded by the cost of the whole Run wrapper. The guard measures that
// bound in-process — hook engaged (no-op OnRunStats) versus hook disabled,
// run back to back in pairs per kernel — and asserts the geomean over the
// kernels of each kernel's median pair ratio stays under the 2% budget. An
// A/B in one process is immune to the machine-to-machine drift that makes
// asserting against recorded times flaky; the drift versus BENCH_vm.json's
// latest run is only logged.
//
// On a shared VM the wall time of a few-millisecond kernel swung single
// ratios from 0.88 to 1.37: other processes and the hypervisor take the
// CPU for stretches as long as a run. So each run is timed in CPU time of
// the one OS thread it runs on, which leaves out time the guest scheduled
// anything else, and the two arms of a pair run back to back, in
// alternating order, so a slow phase of the host lands on both. The median
// over many pairs discards the pairs a burst of steal split.
func TestFig13TracingGuard(t *testing.T) {
	if testing.Short() {
		t.Skip("timing guard skipped in -short mode")
	}
	runtime.LockOSThread()
	defer runtime.UnlockOSThread()
	const pairs = 21
	logSum, disabledNs := 0.0, map[string]float64{}
	for _, k := range Kernels {
		ratios := make([]float64, pairs)
		minDisabled := time.Duration(math.MaxInt64)
		for r := range ratios {
			var d [2]time.Duration // disabled, hook-engaged
			for _, hook := range []bool{r%2 == 1, r%2 == 0} {
				if hook {
					d[1] = timeKernel(t, k, true)
				} else {
					d[0] = timeKernel(t, k, false)
				}
			}
			ratios[r] = float64(d[1]) / float64(d[0])
			minDisabled = min(minDisabled, d[0])
		}
		sort.Float64s(ratios)
		ratio := ratios[pairs/2]
		logSum += math.Log(ratio)
		disabledNs[k.Name] = float64(minDisabled.Nanoseconds())
		t.Logf("%-8s disabled %v (min), median pair ratio %.4f (quartiles %.4f..%.4f)",
			k.Name, minDisabled, ratio, ratios[pairs/4], ratios[3*pairs/4])
	}
	geomean := math.Exp(logSum / float64(len(Kernels)))
	t.Logf("geomean hook-engaged/disabled ratio: %.4f", geomean)
	if geomean >= 1.02 {
		t.Errorf("obs hook wrapper costs %.1f%% on the Fig 13 geomean, budget is 2%%", 100*(geomean-1))
	}

	logDriftVsRecorded(t, disabledNs)
}

// timeKernel runs k once on a fresh, warmed machine and returns the
// calling thread's CPU time for the measured run. With hook set the
// machine carries a no-op OnRunStats.
func timeKernel(t *testing.T, k Kernel, hook bool) time.Duration {
	t.Helper()
	machine, err := NewCaffeineVM(taint.Off)
	if err != nil {
		t.Fatal(err)
	}
	var bursts uint64
	if hook {
		machine.Hooks.OnRunStats = func(instrs, calls uint64, _ vm.StopReason) {
			bursts++
		}
	}
	warm := k
	warm.Arg = k.Arg / 16
	if _, err := RunKernel(machine, warm); err != nil {
		t.Fatal(err)
	}
	machine.Heap.ClearDirty()
	runtime.GC()
	start := threadCPU(t)
	if _, err := RunKernel(machine, k); err != nil {
		t.Fatal(err)
	}
	d := threadCPU(t) - start
	if hook && bursts == 0 {
		t.Fatalf("%s: OnRunStats never fired", k.Name)
	}
	return d
}

// logDriftVsRecorded reports (without asserting — recorded numbers come
// from other machines and loads) how the tracing-disabled kernels compare
// to the newest run in BENCH_vm.json.
func logDriftVsRecorded(t *testing.T, disabledNs map[string]float64) {
	data, err := os.ReadFile(filepath.Join("..", "..", "BENCH_vm.json"))
	if err != nil {
		t.Logf("no BENCH_vm.json to compare against: %v", err)
		return
	}
	var file VMBenchFile
	if err := json.Unmarshal(data, &file); err != nil || len(file.Runs) == 0 {
		t.Logf("BENCH_vm.json unusable: %v", err)
		return
	}
	last := file.Runs[len(file.Runs)-1]
	logSum, n := 0.0, 0
	for _, e := range last.Entries {
		if e.Policy != "off" || e.NsPerOp <= 0 {
			continue
		}
		if cur, ok := disabledNs[e.Kernel]; ok {
			logSum += math.Log(cur / e.NsPerOp)
			n++
		}
	}
	if n == 0 {
		t.Logf("BENCH_vm.json run %q has no comparable entries", last.Label)
		return
	}
	drift := math.Exp(logSum / float64(n))
	t.Logf("geomean drift vs BENCH_vm.json run %q: %.3fx (informational)", last.Label, drift)
}
