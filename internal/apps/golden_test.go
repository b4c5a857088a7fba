package apps

import (
	"testing"

	"tinman/internal/netsim"
)

// goldenCounters are the modeled per-login counters of core.Report that a
// change to the simulator's host-side machinery (event queue, segment
// handling, codecs, allocation strategy) must leave untouched.
type goldenCounters struct {
	DeviceInstrs, NodeInstrs                            uint64
	Migrations, Syncs                                   int
	WarmupBytes, DirtyBytes, TriggerSyncBytes, WarmHits int
}

// TestLoginCountersGolden pins every modeled counter of the four login
// apps, logged in one after another in LoginApps order in a seed-1 world,
// on Wi-Fi and on 3G (where the warm-up loses the race on three apps and
// they take the cold path). Report.Total is left out: TLS randoms vary
// record sizes, so it moves by a few microseconds between runs.
func TestLoginCountersGolden(t *testing.T) {
	golden := map[string]map[string]goldenCounters{
		netsim.WiFi.Name: {
			"paypal": {2080019, 102490, 1, 2, 786517, 25325, 214, 1},
			"ebay":   {1150023, 28350, 2, 4, 778186, 17600, 257, 1},
			"github": {820025, 16598, 2, 4, 617987, 5488, 454, 1},
			"askfm":  {1030023, 17990, 2, 4, 734496, 19688, 259, 1},
		},
		netsim.ThreeG.Name: {
			"paypal": {2080019, 102490, 1, 2, 786517, 25325, 214, 1},
			"ebay":   {1150023, 28350, 2, 4, 778186, 17392, 257, 0},
			"github": {820025, 16598, 2, 4, 617987, 5274, 454, 0},
			"askfm":  {1030023, 17990, 2, 4, 734496, 19477, 259, 0},
		},
	}
	for _, prof := range []netsim.Profile{netsim.WiFi, netsim.ThreeG} {
		env, err := NewLoginEnv(EnvConfig{Profile: prof, TinMan: true, Seed: 1})
		if err != nil {
			t.Fatal(err)
		}
		for _, spec := range LoginApps {
			r, err := env.Login(spec.Name)
			if err != nil {
				t.Fatalf("%s %s: %v", prof.Name, spec.Name, err)
			}
			got := goldenCounters{
				r.DeviceInstrs, r.NodeInstrs, r.Migrations, r.Syncs,
				r.WarmupBytes, r.DirtyBytes, r.TriggerSyncBytes, r.WarmHits,
			}
			if want := golden[prof.Name][spec.Name]; got != want {
				t.Errorf("%s %s: counters %+v, want %+v", prof.Name, spec.Name, got, want)
			}
		}
	}
}
