//go:build race

package main

// The allocation guard counts mallocs, and the race detector adds its
// own (sync.Pool also drops a share of Puts under it).
func init() { raceEnabled = true }
