// Package coverage implements the time-domain sensing coverage model of
// SOR §III. A scheduling period [tS, tE] is discretized into N equally
// spaced instants; a measurement taken at instant ti covers instant tj with
// probability p(ti, tj) drawn from a bell-shaped kernel, and a schedule Φ
// covers tj with probability
//
//	p(tj, Φ) = 1 − ∏_{ti∈Φ} (1 − p(ti, tj))      (Eq. 1)
//
// The scheduler's objective is Σ_j p(tj, Φ) (Eq. 2/4). The package exposes
// both a pure evaluator and an incremental accumulator that supports the
// O(1)-amortized marginal-gain queries the greedy algorithm needs.
package coverage

import (
	"errors"
	"fmt"
	"math"
	"time"
)

// Kernel gives the probability that a measurement at time offset d seconds
// away still reflects the reading (the paper's p(ti,tj) as a function of
// tj−ti). Implementations must be symmetric in d, return values in [0,1],
// and return 1 at d = 0.
type Kernel interface {
	// Prob returns the coverage probability at offset d (seconds, may be
	// negative).
	Prob(d float64) float64
	// Support returns the offset beyond which Prob is negligible (< eps);
	// the accumulator uses it to bound work per update. A non-positive
	// return means unbounded support.
	Support() float64
	// String identifies the kernel for logs and experiment records.
	String() string
}

// GaussianKernel is the paper's default: p(d) = exp(−d²/(2σ²)). A large σ
// models slowly varying features (temperature, humidity); a small σ models
// fast ones (acceleration, orientation).
type GaussianKernel struct {
	Sigma float64 // seconds, > 0
}

var _ Kernel = GaussianKernel{}

// Prob implements Kernel.
func (k GaussianKernel) Prob(d float64) float64 {
	if k.Sigma <= 0 {
		if d == 0 {
			return 1
		}
		return 0
	}
	return math.Exp(-d * d / (2 * k.Sigma * k.Sigma))
}

// Support implements Kernel. Beyond 6σ the Gaussian is ~1.5e-8 and is
// treated as zero.
func (k GaussianKernel) Support() float64 { return 6 * k.Sigma }

// String implements Kernel.
func (k GaussianKernel) String() string { return fmt.Sprintf("gaussian(sigma=%gs)", k.Sigma) }

// TriangularKernel is an alternative compact-support kernel:
// p(d) = max(0, 1 − |d|/W). Included because §III notes the algorithm is
// agnostic to the distribution model.
type TriangularKernel struct {
	Width float64 // seconds, > 0
}

var _ Kernel = TriangularKernel{}

// Prob implements Kernel.
func (k TriangularKernel) Prob(d float64) float64 {
	if k.Width <= 0 {
		if d == 0 {
			return 1
		}
		return 0
	}
	v := 1 - math.Abs(d)/k.Width
	if v < 0 {
		return 0
	}
	return v
}

// Support implements Kernel.
func (k TriangularKernel) Support() float64 { return k.Width }

// String implements Kernel.
func (k TriangularKernel) String() string { return fmt.Sprintf("triangular(width=%gs)", k.Width) }

// ExponentialKernel decays as p(d) = exp(−|d|/τ).
type ExponentialKernel struct {
	Tau float64 // seconds, > 0
}

var _ Kernel = ExponentialKernel{}

// Prob implements Kernel.
func (k ExponentialKernel) Prob(d float64) float64 {
	if k.Tau <= 0 {
		if d == 0 {
			return 1
		}
		return 0
	}
	return math.Exp(-math.Abs(d) / k.Tau)
}

// Support implements Kernel.
func (k ExponentialKernel) Support() float64 { return 18 * k.Tau } // e^-18 ≈ 1.5e-8

// String implements Kernel.
func (k ExponentialKernel) String() string { return fmt.Sprintf("exponential(tau=%gs)", k.Tau) }

// Timeline is the discretization of a scheduling period into N equally
// spaced instants t_0..t_{N-1} (the paper's set T).
type Timeline struct {
	start   time.Time
	step    time.Duration
	n       int
	stepSec float64
}

// NewTimeline builds a timeline of n instants spaced step apart starting at
// start.
func NewTimeline(start time.Time, step time.Duration, n int) (*Timeline, error) {
	if n <= 0 {
		return nil, errors.New("coverage: timeline needs n > 0 instants")
	}
	if step <= 0 {
		return nil, errors.New("coverage: timeline needs step > 0")
	}
	return &Timeline{start: start, step: step, n: n, stepSec: step.Seconds()}, nil
}

// N returns the number of instants.
func (tl *Timeline) N() int { return tl.n }

// Step returns the spacing between instants.
func (tl *Timeline) Step() time.Duration { return tl.step }

// Start returns t_0.
func (tl *Timeline) Start() time.Time { return tl.start }

// End returns the last instant t_{N-1}.
func (tl *Timeline) End() time.Time {
	return tl.start.Add(time.Duration(tl.n-1) * tl.step)
}

// Time returns the wall-clock time of instant i.
func (tl *Timeline) Time(i int) time.Time {
	return tl.start.Add(time.Duration(i) * tl.step)
}

// Index returns the nearest instant index for time t, clamped to [0, N).
func (tl *Timeline) Index(t time.Time) int {
	offset := t.Sub(tl.start).Seconds()
	i := int(math.Round(offset / tl.stepSec))
	if i < 0 {
		return 0
	}
	if i >= tl.n {
		return tl.n - 1
	}
	return i
}

// IndexRange returns the instant indices [lo, hi] that fall inside the
// window [from, to] (the paper's Tk for a user participating over that
// window). ok is false when the window misses the timeline entirely.
func (tl *Timeline) IndexRange(from, to time.Time) (lo, hi int, ok bool) {
	if to.Before(from) {
		return 0, 0, false
	}
	loF := from.Sub(tl.start).Seconds() / tl.stepSec
	hiF := to.Sub(tl.start).Seconds() / tl.stepSec
	lo = int(math.Ceil(loF - 1e-9))
	hi = int(math.Floor(hiF + 1e-9))
	if lo < 0 {
		lo = 0
	}
	if hi >= tl.n {
		hi = tl.n - 1
	}
	if lo > hi {
		return 0, 0, false
	}
	return lo, hi, true
}

// OffsetSeconds returns the signed time offset t_j − t_i in seconds.
func (tl *Timeline) OffsetSeconds(i, j int) float64 {
	return float64(j-i) * tl.stepSec
}

// Accumulator maintains, per instant j, the "miss product"
// ∏(1 − p(ti,tj)) over all measurements added so far, so that coverage,
// total coverage, and marginal gains are all incremental. It is the data
// structure behind Algorithm 1's argmax step.
//
// The timeline is uniform, so p(ti, tj) depends only on j − i: the
// accumulator tabulates kernel.Prob(tl.OffsetSeconds(0, d)) once per
// offset d at construction, and Gain and Add read the table. Every entry
// is bit-identical to the call it replaces, because OffsetSeconds(i, j)
// and OffsetSeconds(0, j−i) compute the same float64.
type Accumulator struct {
	tl    *Timeline
	miss  []float64 // miss[j] = ∏ (1 − p(ti, tj)); coverage = 1 − miss[j]
	total float64   // Σ_j (1 − miss[j])
	// span is how many instants a measurement reaches on either side:
	// the kernel's support in instants, capped at N−1 (N−1 for unbounded
	// support). prob[d+span] = kernel.Prob(tl.OffsetSeconds(0, d)) for
	// |d| ≤ span; it is immutable, so clones share it.
	span int
	prob []float64
}

// NewAccumulator returns an empty accumulator over the timeline.
func NewAccumulator(tl *Timeline, kernel Kernel) (*Accumulator, error) {
	if tl == nil {
		return nil, errors.New("coverage: nil timeline")
	}
	if kernel == nil {
		return nil, errors.New("coverage: nil kernel")
	}
	miss := make([]float64, tl.N())
	for i := range miss {
		miss[i] = 1
	}
	span := tl.N() - 1
	if s := kernel.Support(); s > 0 {
		if radius := math.Ceil(s / tl.stepSec); radius > 0 && radius < float64(span) {
			span = int(radius)
		}
	}
	prob := make([]float64, 2*span+1)
	for d := -span; d <= span; d++ {
		prob[d+span] = kernel.Prob(tl.OffsetSeconds(0, d))
	}
	return &Accumulator{tl: tl, miss: miss, span: span, prob: prob}, nil
}

// window returns the inclusive index range affected by a measurement at i.
func (a *Accumulator) window(i int) (lo, hi int) {
	return max(i-a.span, 0), min(i+a.span, a.tl.N()-1)
}

// Gain returns the increase of total coverage that a new measurement at
// instant i would produce, without mutating state.
func (a *Accumulator) Gain(i int) float64 {
	lo, hi := a.window(i)
	prob := a.prob[lo-i+a.span : hi-i+a.span+1]
	var gain float64
	for j, m := range a.miss[lo : hi+1] {
		gain += m * prob[j]
	}
	return gain
}

// Add records a measurement at instant i and returns the realized gain.
func (a *Accumulator) Add(i int) float64 {
	lo, hi := a.window(i)
	prob := a.prob[lo-i+a.span : hi-i+a.span+1]
	miss := a.miss[lo : hi+1]
	var gain float64
	for j, p := range prob {
		delta := miss[j] * p
		gain += delta
		miss[j] -= delta
	}
	a.total += gain
	return gain
}

// Total returns Σ_j p(tj, Φ) for all measurements added so far (Eq. 2).
func (a *Accumulator) Total() float64 { return a.total }

// Average returns Total()/N — the paper's "average coverage probability"
// metric from §V-C.
func (a *Accumulator) Average() float64 { return a.total / float64(a.tl.N()) }

// Coverage returns p(tj, Φ) for instant j.
func (a *Accumulator) Coverage(j int) float64 { return 1 - a.miss[j] }

// Reset clears all measurements.
func (a *Accumulator) Reset() {
	for i := range a.miss {
		a.miss[i] = 1
	}
	a.total = 0
}

// Clone returns an independent deep copy (used by what-if evaluation in
// the online scheduler).
func (a *Accumulator) Clone() *Accumulator {
	miss := make([]float64, len(a.miss))
	copy(miss, a.miss)
	return &Accumulator{tl: a.tl, miss: miss, total: a.total, span: a.span, prob: a.prob}
}

// Eval computes Σ_j p(tj, Φ) from scratch for a set of measurement instants
// — the reference implementation used by tests to validate Accumulator.
func Eval(tl *Timeline, kernel Kernel, instants []int) float64 {
	var total float64
	for j := 0; j < tl.N(); j++ {
		missProb := 1.0
		for _, i := range instants {
			missProb *= 1 - kernel.Prob(tl.OffsetSeconds(i, j))
		}
		total += 1 - missProb
	}
	return total
}
