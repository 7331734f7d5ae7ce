//go:build !race

package service

// raceEnabled reports whether the race detector is compiled in; the
// allocation measurements skip under it because instrumentation
// allocates.
const raceEnabled = false
