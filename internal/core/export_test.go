package core

// RunWarmup streams app's speculative warm-up on its own, with no
// foreground execution, until the node acknowledges the final chunk or the
// attempt dies. It records the stream in app.Report and reports whether the
// warm delta path ended up armed.
func RunWarmup(a *App) bool {
	a.startWarmup()
	a.dev.w.Net.RunUntil(func() bool {
		if err := a.dev.pump(); err != nil {
			return true
		}
		return a.ep.WarmupReady() || a.ep.WarmupEpoch() == 0
	})
	a.Report.WarmupChunks = a.ep.Stats.WarmupChunks
	a.Report.WarmupBytes = a.ep.Stats.WarmupBytes
	return a.ep.WarmupReady()
}
