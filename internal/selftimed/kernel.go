package selftimed

import (
	"fmt"
	"sync"

	"repro/internal/comm"
	"repro/internal/faults"
	"repro/internal/stats"
)

// Kernel is an immutable per-graph precomputation that turns the
// self-timed token game into flat-array accumulation. Built once — one
// pass over the edge list — it caches:
//
//   - the cell-to-cell dataflow adjacency in CSR form, in-edges
//     carrying their g.Edges index (the fault-injection key) and
//     out-edges the consumer cell, in exactly the order the reference
//     implementation builds its per-call slice-of-struct lists;
//   - a sync.Pool of arenas holding the history ring (flattened to one
//     backing array) and a per-wave batch of uniform draws, so
//     steady-state runs allocate nothing.
//
// Delay parameters, channel depth, waves, and fault injection stay out
// of the kernel and are supplied per call, so one kernel serves a whole
// parameter sweep. Worst-case decisions are drawn per wave with a
// single batched Float64Fill; the samples come from the same stream
// positions as the reference's per-firing Bernoulli calls, so results
// are bit-identical.
type Kernel struct {
	g        *comm.Graph
	n        int
	numEdges uint64

	insStart []int32 // CSR over in-edges of each cell
	insFrom  []int32 // producer cell of each in-edge
	insEdge  []int32 // index of the edge in g.Edges (fault key)

	outsStart []int32 // CSR over out-edges of each cell
	outsTo    []int32 // consumer cell of each out-edge

	arenas sync.Pool // *stArena
}

// stArena is one worker's run scratch: the flattened history ring and
// the per-wave draw batch. Buffers grow to the largest (depth, n) seen
// and are reused; steady state allocates nothing.
type stArena struct {
	hist  []float64
	draws []float64
}

func errBadDepth(depth int) error {
	return fmt.Errorf("selftimed: channel depth must be ≥ 1, got %d", depth)
}

func errBadWaves(waves int) error {
	return fmt.Errorf("selftimed: waves must be ≥ 1, got %d", waves)
}

func errNeedRNG() error {
	return fmt.Errorf("selftimed: random PWorst needs an RNG")
}

// NewKernel builds the flat dataflow adjacency of g. O(cells + edges).
func NewKernel(g *comm.Graph) *Kernel {
	n := g.NumCells()
	k := &Kernel{g: g, n: n, numEdges: uint64(g.NumEdges())}
	inCount := make([]int32, n)
	outCount := make([]int32, n)
	for ei := 0; ei < g.NumEdges(); ei++ {
		e := g.Edge(ei)
		if e.From == comm.Host || e.To == comm.Host {
			continue
		}
		inCount[e.To]++
		outCount[e.From]++
	}
	k.insStart = make([]int32, n+1)
	k.outsStart = make([]int32, n+1)
	for i := 0; i < n; i++ {
		k.insStart[i+1] = k.insStart[i] + inCount[i]
		k.outsStart[i+1] = k.outsStart[i] + outCount[i]
	}
	k.insFrom = make([]int32, k.insStart[n])
	k.insEdge = make([]int32, k.insStart[n])
	k.outsTo = make([]int32, k.outsStart[n])
	inAt := make([]int32, n)
	outAt := make([]int32, n)
	for idx := 0; idx < g.NumEdges(); idx++ {
		e := g.Edge(idx)
		if e.From == comm.Host || e.To == comm.Host {
			continue
		}
		p := k.insStart[e.To] + inAt[e.To]
		k.insFrom[p] = int32(e.From)
		k.insEdge[p] = int32(idx)
		inAt[e.To]++
		q := k.outsStart[e.From] + outAt[e.From]
		k.outsTo[q] = int32(e.To)
		outAt[e.From]++
	}
	k.arenas.New = func() any { return &stArena{} }
	return k
}

// ensure resizes the arena for a run with the given ring size, reusing
// capacity when possible. The history ring must start zeroed (rows
// before wave 0 read as zero).
func (a *stArena) ensure(histLen, n int) {
	if cap(a.hist) < histLen {
		a.hist = make([]float64, histLen)
	} else {
		a.hist = a.hist[:histLen]
		for i := range a.hist {
			a.hist[i] = 0
		}
	}
	if cap(a.draws) < n {
		a.draws = make([]float64, n)
	} else {
		a.draws = a.draws[:n]
	}
}

// RunElasticFaulty runs the token-game recurrence over the kernel's
// flat adjacency. Results are bit-identical to the retained reference:
// the per-edge float operations are applied in the reference's order,
// and the per-wave draw batch consumes the same stream positions as its
// per-firing Bernoulli calls. Steady state allocates nothing.
func (k *Kernel) RunElasticFaulty(waves int, d Delays, depth int, rng *stats.RNG, inj *faults.Injector) (Result, error) {
	if depth < 1 {
		return Result{}, errBadDepth(depth)
	}
	if err := d.validate(); err != nil {
		return Result{}, err
	}
	if waves < 1 {
		return Result{}, errBadWaves(waves)
	}
	random := d.PWorst > 0 && d.PWorst < 1
	if rng == nil && random {
		return Result{}, errNeedRNG()
	}
	n := k.n
	ar := k.arenas.Get().(*stArena)
	ar.ensure((depth+1)*n, n)
	hist := ar.hist
	row := func(w int) []float64 {
		if w < 0 {
			// Pre-start rows stay zero until overwritten: slot `depth` is
			// first written at wave depth, after its last read at wave 0.
			return hist[depth*n : (depth+1)*n]
		}
		s := (w % (depth + 1)) * n
		return hist[s : s+n]
	}
	alwaysWorst := d.PWorst >= 1
	var makespan float64
	worstCount := 0
	for w := 0; w < waves; w++ {
		prev := row(w - 1)
		back := row(w - depth)
		cur := row(w)
		if random {
			rng.Float64Fill(ar.draws)
		}
		waveKey := uint64(w) * k.numEdges
		for i := 0; i < n; i++ {
			start := prev[i]
			if inj == nil {
				for j := k.insStart[i]; j < k.insStart[i+1]; j++ {
					if t := prev[k.insFrom[j]] + d.Handshake; t > start {
						start = t
					}
				}
			} else {
				for j := k.insStart[i]; j < k.insStart[i+1]; j++ {
					t := prev[k.insFrom[j]] + d.Handshake + inj.MessageExtra(waveKey+uint64(k.insEdge[j]))
					if t > start {
						start = t
					}
				}
			}
			if w-depth >= 0 {
				for j := k.outsStart[i]; j < k.outsStart[i+1]; j++ {
					if t := back[k.outsTo[j]]; t > start {
						start = t
					}
				}
			}
			step := d.Fast
			worst := alwaysWorst
			if random {
				worst = ar.draws[i] < d.PWorst
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
	k.arenas.Put(ar)
	return Result{
		Makespan:      makespan,
		MeanInterval:  makespan / float64(waves),
		WorstFraction: float64(worstCount) / float64(n*waves),
		Waves:         waves,
	}, nil
}

// RunRigid is the kernel form of the package RunRigid: the rigid-front
// wave model, with the per-wave worst-case decisions drawn as one
// batch. Steady state allocates nothing.
func (k *Kernel) RunRigid(waves int, d Delays, rng *stats.RNG) (Result, error) {
	if err := d.validate(); err != nil {
		return Result{}, err
	}
	if waves < 1 {
		return Result{}, errBadWaves(waves)
	}
	random := d.PWorst > 0 && d.PWorst < 1
	if rng == nil && random {
		return Result{}, errNeedRNG()
	}
	n := k.n
	ar := k.arenas.Get().(*stArena)
	ar.ensure(0, n)
	alwaysWorst := d.PWorst >= 1
	var makespan float64
	worstCount := 0
	for w := 0; w < waves; w++ {
		waveTime := d.Fast
		if random {
			rng.Float64Fill(ar.draws)
			for i := 0; i < n; i++ {
				if ar.draws[i] < d.PWorst {
					worstCount++
					waveTime = d.Worst
				}
			}
		} else if alwaysWorst {
			worstCount += n
			waveTime = d.Worst
		}
		makespan += waveTime + d.Handshake
	}
	k.arenas.Put(ar)
	return Result{
		Makespan:      makespan,
		MeanInterval:  makespan / float64(waves),
		WorstFraction: float64(worstCount) / float64(n*waves),
		Waves:         waves,
	}, nil
}
