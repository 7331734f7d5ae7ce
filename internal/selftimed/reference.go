package selftimed

import (
	"repro/internal/comm"
	"repro/internal/faults"
	"repro/internal/stats"
)

// This file retains the pre-kernel implementations verbatim as
// executable reference oracles. The kernel-backed fast paths in
// selftimed.go and kernel.go must agree with these exactly — zero
// tolerance — which the differential tests and the propcheck invariant
// "selftimed-kernel-matches-reference" assert over random graphs,
// channel depths, and fault configurations. The references deliberately
// keep every pre-kernel cost: adjacency is rebuilt as slice-of-struct
// lists on every call, the history ring is a slice of per-wave rows,
// and every worst-case decision is a separate Bernoulli call (the
// kernel batches the same draws from the same stream positions).

// ReferenceRun is the pre-kernel Run.
func ReferenceRun(g *comm.Graph, waves int, d Delays, rng *stats.RNG) (Result, error) {
	return ReferenceRunElastic(g, waves, d, 1, rng)
}

// ReferenceRunElastic is the pre-kernel RunElastic.
func ReferenceRunElastic(g *comm.Graph, waves int, d Delays, depth int, rng *stats.RNG) (Result, error) {
	return ReferenceRunElasticFaulty(g, waves, d, depth, rng, nil)
}

// ReferenceRunElasticFaulty is the pre-kernel RunElasticFaulty: the
// token-game recurrence with per-call adjacency construction and one
// Bernoulli draw per firing.
func ReferenceRunElasticFaulty(g *comm.Graph, waves int, d Delays, depth int, rng *stats.RNG, inj *faults.Injector) (Result, error) {
	if depth < 1 {
		return Result{}, errBadDepth(depth)
	}
	if err := d.validate(); err != nil {
		return Result{}, err
	}
	if waves < 1 {
		return Result{}, errBadWaves(waves)
	}
	if rng == nil && d.PWorst > 0 && d.PWorst < 1 {
		return Result{}, errNeedRNG()
	}
	n := g.NumCells()
	// In-neighbors (with the edge's index in g.Edges, which keys fault
	// decisions per transfer) and out-neighbors over cell-to-cell edges.
	type inEdge struct {
		from comm.CellID
		edge int
	}
	numEdges := uint64(g.NumEdges())
	ins := make([][]inEdge, n)
	outs := make([][]comm.CellID, n)
	for idx := 0; idx < g.NumEdges(); idx++ {
		e := g.Edge(idx)
		if e.From == comm.Host || e.To == comm.Host {
			continue
		}
		ins[e.To] = append(ins[e.To], inEdge{from: e.From, edge: idx})
		outs[e.From] = append(outs[e.From], e.To)
	}
	// hist[w % (depth+1)] holds every cell's completion time of wave w
	// for the last depth+1 waves (zero before wave 0).
	hist := make([][]float64, depth+1)
	for i := range hist {
		hist[i] = make([]float64, n)
	}
	at := func(w int) []float64 {
		if w < 0 {
			return hist[depth] // pre-start rows stay zero until overwritten
		}
		return hist[w%(depth+1)]
	}
	var makespan float64
	worstCount := 0
	for k := 0; k < waves; k++ {
		// Slots never alias: k, k−1, and k−depth are distinct modulo
		// depth+1 for every depth ≥ 1.
		prev := at(k - 1)
		back := at(k - depth)
		cur := at(k)
		for i := 0; i < n; i++ {
			start := prev[i] // a cell cannot start wave k before finishing k−1
			for _, in := range ins[i] {
				// The k-th token on edge j→i appears when j finishes
				// wave k−1 plus handshake (initial tokens are free),
				// plus any injected transfer fault on this edge's wave.
				t := prev[in.from] + d.Handshake + inj.MessageExtra(uint64(k)*numEdges+uint64(in.edge))
				if t > start {
					start = t
				}
			}
			if k-depth >= 0 {
				for _, c := range outs[i] {
					// depth-buffered output: wave k's token needs the
					// consumer to have drained wave k−depth.
					if t := back[c]; t > start {
						start = t
					}
				}
			}
			step := d.Fast
			worst := d.PWorst >= 1
			if d.PWorst > 0 && d.PWorst < 1 {
				worst = rng.Bernoulli(d.PWorst)
			}
			if worst {
				step = d.Worst
				worstCount++
			}
			cur[i] = start + step
			if cur[i] > makespan {
				makespan = cur[i]
			}
		}
	}
	return Result{
		Makespan:      makespan,
		MeanInterval:  makespan / float64(waves),
		WorstFraction: float64(worstCount) / float64(n*waves),
		Waves:         waves,
	}, nil
}

// ReferenceRunRigid is the pre-kernel RunRigid: one Bernoulli call per
// cell per wave.
func ReferenceRunRigid(g *comm.Graph, waves int, d Delays, rng *stats.RNG) (Result, error) {
	if err := d.validate(); err != nil {
		return Result{}, err
	}
	if waves < 1 {
		return Result{}, errBadWaves(waves)
	}
	if rng == nil && d.PWorst > 0 && d.PWorst < 1 {
		return Result{}, errNeedRNG()
	}
	n := g.NumCells()
	var makespan float64
	worstCount := 0
	for k := 0; k < waves; k++ {
		waveTime := d.Fast
		for i := 0; i < n; i++ {
			worst := d.PWorst >= 1
			if d.PWorst > 0 && d.PWorst < 1 {
				worst = rng.Bernoulli(d.PWorst)
			}
			if worst {
				worstCount++
				waveTime = d.Worst
			}
		}
		makespan += waveTime + d.Handshake
	}
	return Result{
		Makespan:      makespan,
		MeanInterval:  makespan / float64(waves),
		WorstFraction: float64(worstCount) / float64(n*waves),
		Waves:         waves,
	}, nil
}
