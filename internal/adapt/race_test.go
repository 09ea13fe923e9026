//go:build race

package adapt

// Under the race detector sync.Pool drops a share of what is put back, so
// geom's exact-predicate arenas are reallocated and allocation counts mean
// nothing; TestAdaptAllocsFlat skips itself.
func init() { raceEnabled = true }
