//go:build race

package core

// The pipelined allocation guard counts mallocs, and the race detector
// adds its own.
func init() { raceEnabled = true }
