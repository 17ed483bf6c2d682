//go:build race

package fabric

// The allocation guards count mallocs, and the race detector adds its
// own (sync.Pool also drops a share of Puts under it).
func init() { raceEnabled = true }
