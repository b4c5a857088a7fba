package core_test

import (
	"runtime"
	"testing"

	"tinman/internal/apps"
	"tinman/internal/core"
	"tinman/internal/netsim"
)

// TestWarmupStreamAllocBudget bounds what the host allocates per warm-up
// byte and per chunk, from BeginWarmup to the node's final ack: capture, one
// encode into the device's frame buffer, TCP segmentation, the node's frame
// reader and its single decode. The byte bound catches a copy creeping back
// into that path; the chunk bound catches an allocation per object, string
// or packet.
func TestWarmupStreamAllocBudget(t *testing.T) {
	// Measured 6.97 bytes allocated per warm-up byte (paypal, seed 1); the
	// bound leaves 1.5x headroom. Encoding twice, decoding twice and
	// re-copying every byte through frames and segments cost 22.9.
	const maxAllocPerByte = 10.5
	// Measured 79.2 allocations per chunk, about 50 of them the packet
	// buffer and netsim.Packet of each segment and ACK; the bound leaves 1.5x
	// headroom. Allocating each decoded string and object, and a closure,
	// event and segment per simulated packet, cost 422.5.
	const maxMallocsPerChunk = 120.0
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
	perChunk := float64(after.Mallocs-before.Mallocs) / float64(app.Report.WarmupChunks)
	t.Logf("%d warm-up bytes in %d chunks, %.2f bytes allocated per byte, %.1f mallocs per chunk",
		app.Report.WarmupBytes, app.Report.WarmupChunks, perByte, perChunk)
	if perByte > maxAllocPerByte {
		t.Fatalf("warm-up allocates %.2f bytes per streamed byte, budget %.1f", perByte, maxAllocPerByte)
	}
	if perChunk > maxMallocsPerChunk {
		t.Fatalf("warm-up makes %.1f allocations per chunk, budget %.0f", perChunk, maxMallocsPerChunk)
	}
}
