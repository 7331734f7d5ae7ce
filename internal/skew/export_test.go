package skew

// PinArena makes k's arena pool hand out a single arena and returns that
// arena's arrival times, which every regime or trial then leaves behind
// for the test to read node by node. Call it on a fresh kernel, before
// any query has put another arena in the pool, and query from one
// goroutine.
func PinArena(k *Kernel) []float64 {
	a := k.arenas.New().(*mcArena)
	k.arenas.New = func() any { return a }
	return a.arrival
}

// RaceEnabled reports whether the race detector is compiled in.
const RaceEnabled = raceEnabled
