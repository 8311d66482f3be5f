package schedule

import (
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"runtime"
	"testing"
	"time"

	"sor/internal/coverage"
	"sor/internal/matroid"
	"sor/internal/submodular"
)

// cauchyKernel has unbounded support (Support ≤ 0), so the accumulator
// works over the whole timeline for every measurement.
type cauchyKernel struct{ scale float64 }

func (k cauchyKernel) Prob(d float64) float64 { return 1 / (1 + (d/k.scale)*(d/k.scale)) }
func (k cauchyKernel) Support() float64       { return 0 }
func (k cauchyKernel) String() string         { return fmt.Sprintf("cauchy(scale=%gs)", k.scale) }

// greedyInstance is one random scheduling problem for the differential
// suite.
type greedyInstance struct {
	tl     *coverage.Timeline
	kernel coverage.Kernel
	parts  []Participant
	prior  []int
}

// randomGreedyInstance draws a timeline, a kernel and participants whose
// windows are disjoint, nested, identical or independent, with zero
// budgets and prior instants mixed in.
func randomGreedyInstance(t *testing.T, rng *rand.Rand) greedyInstance {
	t.Helper()
	n := 1 + rng.Intn(90)
	step := time.Duration(1+rng.Intn(20)) * time.Second
	tl, err := coverage.NewTimeline(periodStart, step, n)
	if err != nil {
		t.Fatal(err)
	}
	stepSec := step.Seconds()
	var kernel coverage.Kernel
	switch rng.Intn(4) {
	case 0:
		kernel = coverage.GaussianKernel{Sigma: stepSec * (0.3 + 3*rng.Float64())}
	case 1:
		// A whole number of steps wide: gains at instants away from the
		// edges and from other measurements tie exactly.
		kernel = coverage.TriangularKernel{Width: stepSec * float64(1+rng.Intn(6))}
	case 2:
		kernel = coverage.ExponentialKernel{Tau: stepSec * (0.2 + 2*rng.Float64())}
	default:
		kernel = cauchyKernel{scale: stepSec * (0.5 + 4*rng.Float64())}
	}
	k := rng.Intn(9)
	parts := make([]Participant, k)
	los, his := make([]int, k), make([]int, k)
	mode := rng.Intn(4)
	for u := range parts {
		lo := rng.Intn(n)
		hi := lo + rng.Intn(n-lo)
		switch {
		case mode == 0: // disjoint: consecutive slices of the timeline
			lo = u * n / k
			hi = max((u+1)*n/k-1, lo)
		case mode == 1 && u > 0: // nested: inside the previous window
			lo = los[u-1] + rng.Intn(his[u-1]-los[u-1]+1)
			hi = lo + rng.Intn(his[u-1]-lo+1)
		case mode == 2 && u > 0: // identical
			lo, hi = los[0], his[0]
		}
		los[u], his[u] = lo, hi
		arrive, leave := tl.Time(lo), tl.Time(hi)
		if mode == 3 && rng.Intn(5) == 0 {
			// A window starting before the period or missing it.
			arrive = arrive.Add(-time.Duration(rng.Intn(3*n)) * step)
			if rng.Intn(2) == 0 {
				leave = arrive.Add(step / 2)
			}
		}
		budget := rng.Intn(7)
		if rng.Intn(6) == 0 {
			budget = 0
		}
		parts[u] = Participant{UserID: fmtUser(u), Arrive: arrive, Leave: leave, Budget: budget}
	}
	prior := make([]int, rng.Intn(4))
	for i := range prior {
		prior[i] = rng.Intn(n)
	}
	return greedyInstance{tl: tl, kernel: kernel, parts: parts, prior: prior}
}

// primedAccumulator returns an accumulator holding the instance's prior
// measurements.
func (g greedyInstance) primedAccumulator(t *testing.T) *coverage.Accumulator {
	t.Helper()
	acc, err := coverage.NewAccumulator(g.tl, g.kernel)
	if err != nil {
		t.Fatal(err)
	}
	for _, i := range g.prior {
		acc.Add(i)
	}
	return acc
}

// runGeneric runs one of the generic submodular engines over the (user,
// instant) ground set and returns its picks and final coverage.
func (g greedyInstance) runGeneric(t *testing.T, s *Scheduler,
	engine func(submodular.Objective, matroid.Matroid, float64) (*submodular.Result, error)) ([]element, float64) {
	t.Helper()
	elems, partOf, caps, err := s.buildGround(g.parts)
	if err != nil {
		t.Fatal(err)
	}
	acc := g.primedAccumulator(t)
	if len(elems) == 0 {
		return nil, acc.Total()
	}
	m, err := matroid.NewPartition(partOf, caps)
	if err != nil {
		t.Fatal(err)
	}
	res, err := engine(&coverageObjective{acc: acc, elems: elems}, m, minGreedyGain)
	if err != nil {
		t.Fatal(err)
	}
	var picks []element
	for _, e := range res.Chosen {
		picks = append(picks, elems[e])
	}
	return picks, acc.Total()
}

// TestInstantGreedyMatchesGenericEngines is the differential suite: on
// random instances the instant-level lazy greedy must pick the same
// (user, instant) sequence as submodular.LazyGreedy and submodular.Greedy
// over the ground set, and reach bit-identical total coverage.
func TestInstantGreedyMatchesGenericEngines(t *testing.T) {
	instances := 3000
	if testing.Short() {
		instances = 500
	}
	rng := rand.New(rand.NewSource(20131117))
	for n := 0; n < instances; n++ {
		g := randomGreedyInstance(t, rng)
		s, err := NewScheduler(g.tl, g.kernel)
		if err != nil {
			t.Fatal(err)
		}
		wins, err := s.windows(g.parts)
		if err != nil {
			t.Fatal(err)
		}
		acc := g.primedAccumulator(t)
		got, _ := instantGreedy(acc, wins, g.tl.N())
		for _, eng := range []struct {
			name string
			run  func(submodular.Objective, matroid.Matroid, float64) (*submodular.Result, error)
		}{{"LazyGreedy", submodular.LazyGreedy}, {"Greedy", submodular.Greedy}} {
			want, total := g.runGeneric(t, s, eng.run)
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("instance %d (%s, %d users, prior %v): instant-level picks\n%v\n%s picks\n%v",
					n, g.kernel, len(g.parts), g.prior, got, eng.name, want)
			}
			if math.Float64bits(acc.Total()) != math.Float64bits(total) {
				t.Fatalf("instance %d: coverage %v vs %s %v", n, acc.Total(), eng.name, total)
			}
		}
	}
}

// TestLazySchedulerPlanMatchesEager checks the public surface: a lazy
// Scheduler's plan is the eager one's, assignment for assignment, with
// bit-identical coverage.
func TestLazySchedulerPlanMatchesEager(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for n := 0; n < 200; n++ {
		g := randomGreedyInstance(t, rng)
		eager, err := NewScheduler(g.tl, g.kernel)
		if err != nil {
			t.Fatal(err)
		}
		lazy, err := NewScheduler(g.tl, g.kernel, WithLazyGreedy())
		if err != nil {
			t.Fatal(err)
		}
		pe, err := eager.Greedy(g.parts, g.prior)
		if err != nil {
			t.Fatal(err)
		}
		pl, err := lazy.Greedy(g.parts, g.prior)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(pe.Assignments, pl.Assignments) {
			t.Fatalf("instance %d: eager %v lazy %v", n, pe.Assignments, pl.Assignments)
		}
		if math.Float64bits(pe.TotalCoverage) != math.Float64bits(pl.TotalCoverage) {
			t.Fatalf("instance %d: coverage eager %v lazy %v", n, pe.TotalCoverage, pl.TotalCoverage)
		}
		if err := lazy.Verify(g.parts, pl); err != nil {
			t.Fatalf("instance %d: %v", n, err)
		}
	}
}

// Replan cost at the paper's scale: 55 members present for a whole
// 3-hour period at a 10 s step (1081 instants), budget 17 — the ground
// set the generic engine would heap is 59 455 (user, instant) elements.
// The oracle-call count is exact: it moves only when the engine's choices
// or its laziness change. The allocation and byte ceilings keep the
// engine from growing a per-(user, instant) structure again (the ground
// set alone is ~3 MB of heap per replan). Measured: 79 allocations and
// 113 KiB per replan, 134 allocations under the race detector.
const (
	replanGateOracleCalls = 13747
	replanGateMaxAllocs   = 160
	replanGateMaxBytes    = 256 << 10
)

// TestReplanCostGate pins the lazy scheduler's work per replan.
func TestReplanCostGate(t *testing.T) {
	g := greedyInstance{kernel: coverage.GaussianKernel{Sigma: 10}}
	var err error
	if g.tl, err = coverage.NewTimeline(periodStart, 10*time.Second, 1081); err != nil {
		t.Fatal(err)
	}
	for k := 0; k < 55; k++ {
		g.parts = append(g.parts, Participant{UserID: fmtUser(k), Arrive: g.tl.Start(), Leave: g.tl.End(), Budget: 17})
	}
	s, err := NewScheduler(g.tl, g.kernel, WithLazyGreedy())
	if err != nil {
		t.Fatal(err)
	}
	plan, err := s.Greedy(g.parts, nil)
	if err != nil {
		t.Fatal(err)
	}
	if plan.OracleCalls != replanGateOracleCalls {
		t.Errorf("oracle calls = %d, gate pins %d", plan.OracleCalls, replanGateOracleCalls)
	}
	wins, err := s.windows(g.parts)
	if err != nil {
		t.Fatal(err)
	}
	got, _ := instantGreedy(g.primedAccumulator(t), wins, g.tl.N())
	if want, _ := g.runGeneric(t, s, submodular.LazyGreedy); !reflect.DeepEqual(got, want) {
		t.Fatal("instant-level picks differ from submodular.LazyGreedy at paper scale")
	}

	const runs = 5
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	for i := 0; i < runs; i++ {
		if _, err := s.Greedy(g.parts, nil); err != nil {
			t.Fatal(err)
		}
	}
	runtime.ReadMemStats(&m1)
	allocs := (m1.Mallocs - m0.Mallocs) / runs
	bytes := (m1.TotalAlloc - m0.TotalAlloc) / runs
	if allocs > replanGateMaxAllocs {
		t.Errorf("%d allocations per replan, ceiling %d", allocs, replanGateMaxAllocs)
	}
	if bytes > replanGateMaxBytes {
		t.Errorf("%d bytes allocated per replan, ceiling %d", bytes, replanGateMaxBytes)
	}
	t.Logf("55 x 1081, budget 17: %d oracle calls, %d allocations, %d bytes per replan, coverage %.4f",
		plan.OracleCalls, allocs, bytes, plan.AverageCoverage)
}
