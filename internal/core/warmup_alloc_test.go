package core_test

import (
	"runtime"
	"testing"

	"tinman/internal/apps"
	"tinman/internal/core"
	"tinman/internal/netsim"
)

// TestWarmupStreamAllocBudget bounds what the host allocates per warm-up
// byte, from BeginWarmup to the node's final ack: capture, one encode into
// the device's frame buffer, TCP segmentation, the node's frame reader and
// its single decode. It catches a copy creeping back into that path.
func TestWarmupStreamAllocBudget(t *testing.T) {
	// Measured 6.97 bytes allocated per warm-up byte (paypal, seed 1); the
	// bound leaves 1.5x headroom. Encoding twice, decoding twice and
	// re-copying every byte through frames and segments cost 22.9.
	const maxAllocPerByte = 10.5
	env, err := apps.NewLoginEnv(apps.EnvConfig{Profile: netsim.WiFi, TinMan: true, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	app := env.Apps["paypal"]
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	ok := core.RunWarmup(app)
	runtime.ReadMemStats(&after)
	if !ok {
		t.Fatal("warm-up did not complete")
	}
	if app.Report.WarmupBytes < 100<<10 {
		t.Fatalf("warm-up streamed only %d bytes; the budget measures nothing", app.Report.WarmupBytes)
	}
	perByte := float64(after.TotalAlloc-before.TotalAlloc) / float64(app.Report.WarmupBytes)
	t.Logf("%d warm-up bytes in %d chunks, %.2f bytes allocated per byte",
		app.Report.WarmupBytes, app.Report.WarmupChunks, perByte)
	if perByte > maxAllocPerByte {
		t.Fatalf("warm-up allocates %.2f bytes per streamed byte, budget %.1f", perByte, maxAllocPerByte)
	}
}
