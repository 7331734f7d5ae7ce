package skew

import (
	"context"
	"errors"
	"testing"

	"repro/internal/clocktree"
	"repro/internal/comm"
	"repro/internal/stats"
)

// The parallel Monte Carlo must reproduce the sequential result bit for
// bit at any worker count: each trial forks the generator by trial
// index, so scheduling cannot reorder randomness.
func TestMonteCarloParallelMatchesSequential(t *testing.T) {
	g, err := comm.Mesh(6, 6)
	if err != nil {
		t.Fatal(err)
	}
	tree, err := clocktree.HTree(g)
	if err != nil {
		t.Fatal(err)
	}
	m := Linear{M: 1, Eps: 0.2}
	const trials, seed = 64, 7
	want, err := MonteCarlo(g, tree, m, trials, stats.NewRNG(seed))
	if err != nil {
		t.Fatal(err)
	}
	if want <= 0 {
		t.Fatalf("sequential Monte Carlo found zero skew on a mesh")
	}
	k, err := NewKernel(g, tree)
	if err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{1, 2, 8} {
		got, err := k.MonteCarloParallel(context.Background(), workers, m, trials, stats.NewRNG(seed))
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		if got != want {
			t.Errorf("workers=%d: parallel result %v differs from sequential %v", workers, got, want)
		}
	}
}

func TestMonteCarloParallelHonorsCancellation(t *testing.T) {
	g, err := comm.Mesh(4, 4)
	if err != nil {
		t.Fatal(err)
	}
	tree, err := clocktree.HTree(g)
	if err != nil {
		t.Fatal(err)
	}
	k, err := NewKernel(g, tree)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, err = k.MonteCarloParallel(ctx, 4, Linear{M: 1, Eps: 0.1}, 128, stats.NewRNG(1))
	if !errors.Is(err, context.Canceled) {
		t.Errorf("cancelled run returned %v; want context.Canceled", err)
	}
}
