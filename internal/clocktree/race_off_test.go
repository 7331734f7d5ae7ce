//go:build !race

package clocktree

// raceEnabled reports whether the race detector is compiled in; the
// allocation-count gates skip under it because instrumentation
// allocates.
const raceEnabled = false
