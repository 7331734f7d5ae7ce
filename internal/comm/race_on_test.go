//go:build race

package comm

// raceEnabled reports whether the race detector is compiled in; the
// allocation-count gate skips under it because instrumentation
// allocates.
const raceEnabled = true
