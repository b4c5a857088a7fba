package main

import (
	"encoding/json"
	"os"
	"testing"

	"tinman/internal/apps"
	"tinman/internal/bench"
	"tinman/internal/netsim"
)

// TestSmoke runs every workload once for a second, traced (which runs it
// untraced first), and fails on any output or attribution check.
func TestSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("drives every workload")
	}
	for name, run := range workloads {
		t.Run(name, func(t *testing.T) {
			rep, err := run(config{workload: name, seed: 7, seconds: 1, trace: true, workdir: t.TempDir()})
			if err != nil {
				t.Fatal(err)
			}
			for _, p := range rep.problems {
				t.Error(p)
			}
			if rep.attempted == 0 || rep.failed != 0 {
				t.Errorf("attempted %d, failed %d", rep.attempted, rep.failed)
			}
			for _, s := range endToEnd {
				if m := rep.metrics[s.name]; m.Value <= 0 {
					t.Errorf("%s = %v, want > 0", s.name, m.Value)
				}
			}
			var layerCPU float64
			for _, l := range cpuLayers {
				layerCPU += rep.metrics[l+".cpu_us_per_op"].Value
			}
			if layerCPU <= 0 {
				t.Error("no CPU charged to any layer")
			}
			if got := len(resultMetrics(rep, true)); got != len(perLayer) {
				t.Errorf("traced result has %d metrics, want %d", got, len(perLayer))
			}
		})
	}
}

// TestSecondLoginDelta logs the same app in twice in one world: the
// app's report accumulates across the two runs, so only differences taken
// around each Login describe one login.
func TestSecondLoginDelta(t *testing.T) {
	env, err := newSession(11)
	if err != nil {
		t.Fatal(err)
	}
	rep := newReport()
	const name = "github"
	_, first, err := loginOnce(env, name, rep)
	if err != nil {
		t.Fatal(err)
	}
	_, second, err := loginOnce(env, name, rep)
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range rep.problems {
		t.Error(p)
	}
	if first.deviceInstrs == 0 || second.deviceInstrs != first.deviceInstrs {
		t.Errorf("device instructions per login: first %d, second %d", first.deviceInstrs, second.deviceInstrs)
	}
	if second.migrations != first.migrations || second.syncs != first.syncs {
		t.Errorf("second login: %d migrations, %d syncs; first: %d, %d",
			second.migrations, second.syncs, first.migrations, first.syncs)
	}
	cum := env.Apps[name].Report
	if cum.DeviceInstrs != first.deviceInstrs+second.deviceInstrs || cum.Migrations != first.migrations+second.migrations {
		t.Errorf("report after two logins (%d instrs, %d migrations) is not the sum of the deltas",
			cum.DeviceInstrs, cum.Migrations)
	}
}

// TestSessionMatchesOffloadBench checks one session's per-login accounting
// against bench.Offload, which builds a fresh world per app with the same
// seed. Warm-up bytes match for every app, and so does the first offload
// trigger's size, since each app's first login in a world is the one
// bench.Offload measures. The session's first login is made in the same
// state as bench.Offload's, so its modeled latency matches too, up to the
// few microseconds by which the random TLS handshake values change message
// sizes.
func TestSessionMatchesOffloadBench(t *testing.T) {
	const worldSeed = 42
	rows, err := bench.Offload(netsim.WiFi, worldSeed)
	if err != nil {
		t.Fatal(err)
	}
	env, err := newSession(worldSeed)
	if err != nil {
		t.Fatal(err)
	}
	rep := newReport()
	for i, spec := range apps.LoginApps {
		row := rows[i]
		_, d, err := loginOnce(env, spec.Name, rep)
		if err != nil {
			t.Fatal(err)
		}
		if d.warmupBytes != row.WarmupBytes {
			t.Errorf("%s: warm-up %dB, bench.Offload %dB", spec.Name, d.warmupBytes, row.WarmupBytes)
		}
		if first := env.Apps[spec.Name].Report.FirstTriggerSyncBytes; first != row.WarmTriggerBytes {
			t.Errorf("%s: first trigger %dB, bench.Offload %dB", spec.Name, first, row.WarmTriggerBytes)
		}
		if diff := d.total - row.WarmTotal; i == 0 && (diff > row.WarmTotal/1000 || diff < -row.WarmTotal/1000) {
			t.Errorf("%s: virtual login %v, bench.Offload %v", spec.Name, d.total, row.WarmTotal)
		}
	}
	for _, p := range rep.problems {
		t.Error(p)
	}
}

// TestSchemaMatchesBenchmarkJSON keeps the metric lists here and in
// BENCHMARK.json the same.
func TestSchemaMatchesBenchmarkJSON(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		EndToEnd []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &spec); err != nil {
		t.Fatal(err)
	}
	check := func(kind string, got []struct{ Name, Unit string }, want []metricSpec) {
		if len(got) != len(want) {
			t.Errorf("%s: BENCHMARK.json lists %d metrics, the benchmark %d", kind, len(got), len(want))
			return
		}
		for i := range want {
			if got[i].Name != want[i].name || got[i].Unit != want[i].unit {
				t.Errorf("%s %d: BENCHMARK.json %s [%s], benchmark %s [%s]",
					kind, i, got[i].Name, got[i].Unit, want[i].name, want[i].unit)
			}
		}
	}
	check("end_to_end", spec.EndToEnd, endToEnd)
	check("per_layer", spec.PerLayer, perLayer)
}

func TestInternalPkg(t *testing.T) {
	for fn, want := range map[string]string{
		"tinman/internal/vm.(*Thread).run":      "vm",
		"tinman/internal/vm/asm.Parse":          "vm",
		"tinman/internal/nodeproto.ReadMessage": "nodeproto",
		"main.runLogin":                         "",
		"runtime.mallocgc":                      "",
	} {
		if got := internalPkg(fn); got != want {
			t.Errorf("internalPkg(%q) = %q, want %q", fn, got, want)
		}
	}
}
