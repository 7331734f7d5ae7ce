package skew

import (
	"errors"
	"math"
	"strings"
	"sync"
	"testing"

	"repro/internal/clocktree"
	"repro/internal/faults"
	"repro/internal/stats"
)

// buildOrSizeError builds a kernel under lim and returns the SizeError
// if a limit refused the resident tier.
func buildOrSizeError(t *testing.T, lim Limits) (*Kernel, *SizeError) {
	t.Helper()
	g := meshArray(t, 8)
	tr, err := clocktree.HTree(g)
	if err != nil {
		t.Fatal(err)
	}
	k, err := NewKernelWithLimits(g, tr, lim)
	if err != nil {
		t.Fatalf("NewKernelWithLimits: %v", err)
	}
	if se := k.SizeError(); se != nil {
		return nil, se
	}
	return k, nil
}

func TestNewKernelWithLimitsRefusesOversize(t *testing.T) {
	cases := []struct {
		name      string
		lim       Limits
		wantField string
	}{
		{"tiny node budget", Limits{MaxNodes: 8}, "nodes"},
		{"tiny pair budget", Limits{MaxPairs: 4}, "pairs"},
		{"tiny byte budget", Limits{MaxBytes: 256}, "bytes"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			_, se := buildOrSizeError(t, tc.lim)
			if se == nil {
				t.Fatal("kernel built despite limit")
			}
			if se.Field != tc.wantField {
				t.Errorf("Field = %q, want %q (err: %v)", se.Field, tc.wantField, se)
			}
			if se.Nodes <= 0 || se.Pairs <= 0 || se.Bytes != KernelBytes(se.Nodes, se.Pairs) {
				t.Errorf("SizeError counts inconsistent: %+v", se)
			}
			if se.Graph == "" || se.Tree == "" {
				t.Errorf("SizeError missing graph/tree names: %+v", se)
			}
			for _, part := range []string{tc.wantField, "too large"} {
				if !strings.Contains(se.Error(), part) {
					t.Errorf("error %q does not mention %q", se.Error(), part)
				}
			}
		})
	}
}

func TestNewKernelDefaultLimitsAdmitNormalSizes(t *testing.T) {
	g := meshArray(t, 8)
	tr, err := clocktree.HTree(g)
	if err != nil {
		t.Fatal(err)
	}
	k, err := NewKernel(g, tr)
	if err != nil {
		t.Fatalf("NewKernel under default limits: %v", err)
	}
	want := KernelBytes(tr.NumNodes(), k.Pairs()) + tr.FootprintBytes()
	if got := k.FootprintBytes(); got != want {
		t.Errorf("FootprintBytes = %d, want %d", got, want)
	}
	// Zero-valued Limits behaves exactly like DefaultLimits.
	if k, err := NewKernelWithLimits(g, tr, Limits{}); err != nil {
		t.Errorf("zero Limits should take defaults: %v", err)
	} else if se := k.SizeError(); se != nil {
		t.Errorf("zero Limits should take defaults: %v", se)
	}
}

func TestCheckKernelSizeInt32Ceiling(t *testing.T) {
	// Counts past the int32 index ceiling must be refused even under an
	// unbounded byte budget — the representation limit is not waivable.
	huge := Limits{MaxNodes: math.MaxInt64, MaxPairs: math.MaxInt64, MaxBytes: math.MaxInt64}
	err := checkKernelSize("g", "t", math.MaxInt32+1, 10, huge)
	var se *SizeError
	if !errors.As(err, &se) || se.Field != "nodes" {
		t.Fatalf("nodes over int32: err = %v, want SizeError on nodes", err)
	}
	err = checkKernelSize("g", "t", 10, math.MaxInt32+1, huge)
	if !errors.As(err, &se) || se.Field != "pairs" {
		t.Fatalf("pairs over int32: err = %v, want SizeError on pairs", err)
	}
	// At exactly the ceiling the counts are representable; only the
	// byte estimate can refuse them.
	if err := checkKernelSize("g", "t", 4, 4, huge); err != nil {
		t.Fatalf("small kernel refused: %v", err)
	}
}

func TestCheckKernelSizePrecedence(t *testing.T) {
	// When several limits trip at once the most fundamental wins:
	// nodes, then pairs, then bytes.
	lim := Limits{MaxNodes: 1, MaxPairs: 1, MaxBytes: 1}
	var se *SizeError
	if err := checkKernelSize("g", "t", 2, 2, lim); !errors.As(err, &se) || se.Field != "nodes" {
		t.Fatalf("want nodes first, got %v", err)
	}
	lim.MaxNodes = 100
	if err := checkKernelSize("g", "t", 2, 2, lim); !errors.As(err, &se) || se.Field != "pairs" {
		t.Fatalf("want pairs second, got %v", err)
	}
	lim.MaxPairs = 100
	if err := checkKernelSize("g", "t", 2, 2, lim); !errors.As(err, &se) || se.Field != "bytes" {
		t.Fatalf("want bytes third, got %v", err)
	}
}

// TestKernelBytesMatchesKernelArrays pins KernelBytes' per-pair term to
// the arrays a kernel actually holds per pair: pairA, pairB and s. Each
// pair's d is read off the tree's root distances, and the pairs
// themselves live in the graph's PairIndex, not the kernel. It pins the
// per-node term likewise to the draw order, which the first clock
// regime builds, and one trial arena (units, arrival): every node is
// charged a full entry in each, and only the root, which has no edge,
// holds none in units.
func TestKernelBytesMatchesKernelArrays(t *testing.T) {
	k, se := buildOrSizeError(t, Limits{})
	if se != nil {
		t.Fatal(se)
	}
	held := int64(4*cap(k.pairA) + 4*cap(k.pairB) + 8*cap(k.s))
	if want := KernelBytes(0, k.Pairs()); held != want {
		t.Fatalf("kernel holds %d B of per-pair arrays, KernelBytes counts %d", held, want)
	}
	if _, err := k.NominalSkew(ClockParams{M: 1}); err != nil {
		t.Fatal(err)
	}
	a := k.arenas.Get().(*mcArena)
	defer k.arenas.Put(a)
	nodes := k.tree.NumNodes()
	held = int64(4*cap(k.draw) + 8*cap(a.units) + 8*cap(a.arrival))
	const root = 8 // the root's unused units entry
	if want := KernelBytes(nodes, 0); held+root != want {
		t.Fatalf("kernel holds %d B of per-node arrays over %d nodes (+%d B for the root), KernelBytes counts %d",
			held, nodes, root, want)
	}
}

// TestAnalyzeOnlyKernelHoldsNoDrawOrder: analyses, Monte-Carlo trials
// and the drift figures never read the draw order, so a kernel that
// only serves them never builds it; the first clock regime does.
func TestAnalyzeOnlyKernelHoldsNoDrawOrder(t *testing.T) {
	k, se := buildOrSizeError(t, Limits{})
	if se != nil {
		t.Fatal(se)
	}
	k.Analyze(Linear{M: 1, Eps: 0.2})
	k.GuaranteedMinSkew(Linear{M: 1, Eps: 0.2})
	if _, err := k.MonteCarlo(Linear{M: 1, Eps: 0.2}, 4, stats.NewRNG(1)); err != nil {
		t.Fatal(err)
	}
	k.MinPipelinedPeriod(ClockParams{M: 1, RiseFallBias: 0.1})
	if k.draw != nil {
		t.Fatal("an analyze-only kernel built the draw order")
	}
	if _, err := k.NominalSkew(ClockParams{M: 1}); err != nil {
		t.Fatal(err)
	}
	if len(k.draw) != k.tree.NumNodes() {
		t.Fatalf("after a regime the draw order has %d entries, want %d", len(k.draw), k.tree.NumNodes())
	}
}

// TestConcurrentFirstRegimesBuildDrawOrderOnce starts the first random
// and jittered regimes of a fresh kernel on several goroutines at once.
// The draw order is built once, under a sync.Once, so the race detector
// sees no conflicting writes, every goroutine reads the one array, and
// every answer equals a sequential run's on a kernel built beforehand.
func TestConcurrentFirstRegimesBuildDrawOrderOnce(t *testing.T) {
	g := meshArray(t, 8)
	tr, err := clocktree.HTree(g)
	if err != nil {
		t.Fatal(err)
	}
	p := ClockParams{M: 1, Eps: 0.2, BufferDelay: 0.1}
	// An injector counts what it injects, so each run gets its own.
	run := func(k *Kernel, i int) (float64, error) {
		if i%2 == 0 {
			return k.RandomSkew(p, stats.NewRNG(int64(i)))
		}
		inj, err := faults.New(faults.Config{JitterProb: 0.3, MaxJitter: 0.5}, 7)
		if err != nil {
			return 0, err
		}
		return k.JitteredSkew(p, stats.NewRNG(int64(i)), inj)
	}
	const workers = 8
	seq, err := NewKernel(g, tr)
	if err != nil {
		t.Fatal(err)
	}
	var want [workers]float64
	for i := range want {
		if want[i], err = run(seq, i); err != nil {
			t.Fatal(err)
		}
	}
	k, err := NewKernel(g, tr)
	if err != nil {
		t.Fatal(err)
	}
	var got [workers]float64
	var errs [workers]error
	var start, done sync.WaitGroup
	start.Add(1)
	for i := 0; i < workers; i++ {
		done.Add(1)
		go func(i int) {
			defer done.Done()
			start.Wait()
			got[i], errs[i] = run(k, i)
		}(i)
	}
	start.Done()
	done.Wait()
	for i := range got {
		if errs[i] != nil {
			t.Fatal(errs[i])
		}
		if got[i] != want[i] {
			t.Errorf("worker %d: concurrent first regime %v, sequential %v", i, got[i], want[i])
		}
	}
	if first := &k.drawOrder()[0]; first != &k.draw[0] {
		t.Fatal("the draw order was rebuilt after the first regimes")
	}
}
