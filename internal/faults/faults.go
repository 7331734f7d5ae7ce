// Package faults is the execution layer's fault-injection seam. The
// paper's Section VI argues that the hybrid scheme's value is robustness:
// a synchronization discipline is only trustworthy if it degrades
// gracefully — bounded stall, never corruption — when the timing
// assumptions it was designed under are violated. This package supplies
// the violations: dropped and delayed handshake messages (recovered by a
// bounded retransmission timeout), per-edge clock jitter beyond the
// [M−Eps, M+Eps] band of Section III, and metastable-resolution failures
// at a configurable per-sample rate (the inverse of a synchronizer's
// MTBF per clock cycle, 1/(MTBF·fclk)).
//
// An Injector draws every fault decision from a generator forked per
// event key, so a simulation's fault pattern depends only on (seed, key)
// — never on evaluation order — and any failing run replays exactly from
// its seed. A nil *Injector is valid everywhere and injects nothing, so
// fault-aware code paths need no special-casing for the clean case.
package faults

import (
	"fmt"

	"repro/internal/stats"
)

// Config sets the rates and magnitudes of the injectable fault classes.
// The zero Config injects nothing.
type Config struct {
	// DropProb is the probability that a handshake message is lost in
	// flight. The sender detects the loss by timeout and retransmits, so
	// a dropped message is delivered RetransmitTimeout late rather than
	// never — faults stall the protocol, they do not deadlock it.
	DropProb float64
	// RetransmitTimeout is the recovery latency of a dropped message; it
	// must be positive when DropProb is.
	RetransmitTimeout float64
	// DelayProb is the probability that a handshake message is delivered
	// late by a uniform draw from (0, MaxDelay].
	DelayProb float64
	// MaxDelay bounds an injected message delay; it must be positive when
	// DelayProb is.
	MaxDelay float64
	// JitterProb is the per-clock-tree-edge probability of excess delay
	// beyond the [M−Eps, M+Eps] band, drawn uniformly from (0, MaxJitter].
	JitterProb float64
	// MaxJitter bounds the per-edge excess; it must be positive when
	// JitterProb is.
	MaxJitter float64
	// MetastableProb is the per-sample probability that a synchronizer
	// fails to resolve in time; each failure costs MetastableStall. A
	// target MTBF at clock frequency fclk gives 1/(MTBF·fclk), clamped
	// to 1.
	MetastableProb float64
	// MetastableStall is the extra resolution wait charged per failure;
	// it must be positive when MetastableProb is.
	MetastableStall float64
}

// Validate checks that every probability is in [0, 1] and every enabled
// fault class has a positive magnitude.
func (c Config) Validate() error {
	for _, p := range []struct {
		name string
		v    float64
	}{
		{"DropProb", c.DropProb}, {"DelayProb", c.DelayProb},
		{"JitterProb", c.JitterProb}, {"MetastableProb", c.MetastableProb},
	} {
		if p.v < 0 || p.v > 1 {
			return fmt.Errorf("faults: %s must be in [0,1], got %g", p.name, p.v)
		}
	}
	if c.DropProb > 0 && c.RetransmitTimeout <= 0 {
		return fmt.Errorf("faults: DropProb %g needs positive RetransmitTimeout, got %g",
			c.DropProb, c.RetransmitTimeout)
	}
	if c.DelayProb > 0 && c.MaxDelay <= 0 {
		return fmt.Errorf("faults: DelayProb %g needs positive MaxDelay, got %g",
			c.DelayProb, c.MaxDelay)
	}
	if c.JitterProb > 0 && c.MaxJitter <= 0 {
		return fmt.Errorf("faults: JitterProb %g needs positive MaxJitter, got %g",
			c.JitterProb, c.MaxJitter)
	}
	if c.MetastableProb > 0 && c.MetastableStall <= 0 {
		return fmt.Errorf("faults: MetastableProb %g needs positive MetastableStall, got %g",
			c.MetastableProb, c.MetastableStall)
	}
	if c.RetransmitTimeout < 0 || c.MaxDelay < 0 || c.MaxJitter < 0 || c.MetastableStall < 0 {
		return fmt.Errorf("faults: magnitudes must be ≥ 0, got %+v", c)
	}
	return nil
}

// Enabled reports whether any fault class has a nonzero rate.
func (c Config) Enabled() bool {
	return c.DropProb > 0 || c.DelayProb > 0 || c.JitterProb > 0 || c.MetastableProb > 0
}

// WorstMessageExtra is the largest extra delivery delay any single
// handshake message can suffer: a drop costs RetransmitTimeout, a delay
// at most MaxDelay (the two are exclusive per message), and the receiving
// controller may additionally stall MetastableStall resolving the sample.
// Stall-bound invariants are stated against this value.
func (c Config) WorstMessageExtra() float64 {
	worst := c.RetransmitTimeout
	if c.DropProb == 0 {
		worst = 0
	}
	if c.DelayProb > 0 && c.MaxDelay > worst {
		worst = c.MaxDelay
	}
	if c.MetastableProb > 0 {
		worst += c.MetastableStall
	}
	return worst
}

// Counts tallies the faults an Injector has injected.
type Counts struct {
	// Messages is the number of MessageExtra decisions drawn.
	Messages int64
	// Dropped and Delayed count handshake messages that were lost
	// (retransmitted) or delivered late.
	Dropped, Delayed int64
	// Jittered counts clock-tree edges given excess delay.
	Jittered int64
	// Metastable counts synchronizer resolution failures.
	Metastable int64
}

// Faults returns the total number of injected fault events.
func (c Counts) Faults() int64 { return c.Dropped + c.Delayed + c.Jittered + c.Metastable }

// Injector hands out fault decisions. Create one per simulation run with
// New; a nil *Injector injects nothing and is safe to pass anywhere.
//
// Every decision is drawn from a generator forked on the caller's event
// key, so outcomes are a pure function of (seed, key): two runs with the
// same seed see identical fault patterns regardless of event ordering,
// and concurrent runs with forked injectors stay reproducible.
//
// The count and total-extra accumulators and the decision generator are
// not goroutine-safe: an Injector belongs to one simulation on one
// goroutine.
type Injector struct {
	cfg  Config
	base *stats.RNG
	// scratch is reseeded per decision to the fork of base for that
	// decision's key, so no decision allocates a generator. It is made
	// on the first decision: an injector that injects nothing never
	// needs one.
	scratch    *stats.RNG
	counts     Counts
	totalExtra float64
}

// New returns an Injector drawing decisions from the given seed.
func New(cfg Config, seed int64) (*Injector, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	return &Injector{cfg: cfg, base: stats.NewRNG(seed)}, nil
}

// Counts returns the faults injected so far.
func (in *Injector) Counts() Counts {
	if in == nil {
		return Counts{}
	}
	return in.counts
}

// TotalExtra returns the sum of all extra delays handed out so far. A
// run's makespan can exceed its clean counterpart by at most this much,
// since every completion time is a maximum over path sums of delays.
func (in *Injector) TotalExtra() float64 {
	if in == nil {
		return 0
	}
	return in.totalExtra
}

// fork returns the decision generator for one event key, salted per
// fault class so that message and jitter decisions with coinciding keys
// stay independent. It is the scratch generator reseeded to the fork's
// stream, valid until the next decision.
func (in *Injector) fork(class, key uint64) *stats.RNG {
	if in.scratch == nil {
		in.scratch = stats.NewRNG(0)
	}
	return in.base.ForkInto(int64(class*0x9E3779B97F4A7C15^key), in.scratch)
}

// MessageExtra returns the extra delivery delay of handshake message
// `key`: RetransmitTimeout if the message is dropped (the retransmission
// is delivered), a uniform draw from (0, MaxDelay] if it is delayed, and
// in either case plus MetastableStall if the receiving controller's
// synchronizer fails to resolve the arrival in time. Returns 0 for most
// messages, and always for a nil Injector.
func (in *Injector) MessageExtra(key uint64) float64 {
	if in == nil || !in.cfg.Enabled() {
		return 0
	}
	r := in.fork(1, key)
	in.counts.Messages++
	var extra float64
	switch {
	case in.cfg.DropProb > 0 && r.Bernoulli(in.cfg.DropProb):
		in.counts.Dropped++
		extra = in.cfg.RetransmitTimeout
	case in.cfg.DelayProb > 0 && r.Bernoulli(in.cfg.DelayProb):
		in.counts.Delayed++
		extra = in.cfg.MaxDelay * (1 - r.Float64())
	}
	extra += in.metastableStall(r)
	in.totalExtra += extra
	return extra
}

// EdgeJitter returns the excess delay of clock-tree edge `key` beyond
// the [M−Eps, M+Eps] band: a uniform draw from (0, MaxJitter] with
// probability JitterProb, else 0.
func (in *Injector) EdgeJitter(key uint64) float64 {
	if in == nil || in.cfg.JitterProb == 0 {
		return 0
	}
	r := in.fork(2, key)
	if !r.Bernoulli(in.cfg.JitterProb) {
		return 0
	}
	in.counts.Jittered++
	extra := in.cfg.MaxJitter * (1 - r.Float64())
	in.totalExtra += extra
	return extra
}

// metastableStall draws one resolution-failure decision from r.
func (in *Injector) metastableStall(r *stats.RNG) float64 {
	if in.cfg.MetastableProb == 0 || !r.Bernoulli(in.cfg.MetastableProb) {
		return 0
	}
	in.counts.Metastable++
	return in.cfg.MetastableStall
}
