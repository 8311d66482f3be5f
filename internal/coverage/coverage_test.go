package coverage

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
	"time"
)

var t0 = time.Date(2013, time.November, 17, 11, 0, 0, 0, time.UTC)

func mustTimeline(t *testing.T, step time.Duration, n int) *Timeline {
	t.Helper()
	tl, err := NewTimeline(t0, step, n)
	if err != nil {
		t.Fatal(err)
	}
	return tl
}

func TestNewTimelineValidation(t *testing.T) {
	if _, err := NewTimeline(t0, time.Second, 0); err == nil {
		t.Fatal("n=0 must error")
	}
	if _, err := NewTimeline(t0, 0, 10); err == nil {
		t.Fatal("step=0 must error")
	}
	if _, err := NewTimeline(t0, -time.Second, 10); err == nil {
		t.Fatal("negative step must error")
	}
}

func TestTimelineAccessors(t *testing.T) {
	tl := mustTimeline(t, 10*time.Second, 1080)
	if tl.N() != 1080 {
		t.Fatalf("N = %d", tl.N())
	}
	if tl.Step() != 10*time.Second {
		t.Fatalf("Step = %v", tl.Step())
	}
	if !tl.Start().Equal(t0) {
		t.Fatalf("Start = %v", tl.Start())
	}
	if want := t0.Add(1079 * 10 * time.Second); !tl.End().Equal(want) {
		t.Fatalf("End = %v, want %v", tl.End(), want)
	}
	if got := tl.Time(6); !got.Equal(t0.Add(time.Minute)) {
		t.Fatalf("Time(6) = %v", got)
	}
	if got := tl.OffsetSeconds(3, 8); got != 50 {
		t.Fatalf("OffsetSeconds(3,8) = %v", got)
	}
	if got := tl.OffsetSeconds(8, 3); got != -50 {
		t.Fatalf("OffsetSeconds(8,3) = %v", got)
	}
}

func TestTimelineIndexClamping(t *testing.T) {
	tl := mustTimeline(t, 10*time.Second, 100)
	if got := tl.Index(t0.Add(-time.Hour)); got != 0 {
		t.Fatalf("index before start = %d", got)
	}
	if got := tl.Index(t0.Add(time.Hour)); got != 99 {
		t.Fatalf("index after end = %d", got)
	}
	if got := tl.Index(t0.Add(44 * time.Second)); got != 4 {
		t.Fatalf("index rounding = %d, want 4", got)
	}
	if got := tl.Index(t0.Add(46 * time.Second)); got != 5 {
		t.Fatalf("index rounding = %d, want 5", got)
	}
}

func TestIndexRange(t *testing.T) {
	tl := mustTimeline(t, 10*time.Second, 100)
	lo, hi, ok := tl.IndexRange(t0.Add(25*time.Second), t0.Add(65*time.Second))
	if !ok || lo != 3 || hi != 6 {
		t.Fatalf("IndexRange = %d..%d ok=%v, want 3..6", lo, hi, ok)
	}
	// Window entirely before the timeline.
	if _, _, ok := tl.IndexRange(t0.Add(-time.Hour), t0.Add(-time.Minute)); ok {
		t.Fatal("window before timeline should be not-ok")
	}
	// Inverted window.
	if _, _, ok := tl.IndexRange(t0.Add(time.Minute), t0); ok {
		t.Fatal("inverted window should be not-ok")
	}
	// Exact boundaries are inclusive.
	lo, hi, ok = tl.IndexRange(t0, t0.Add(990*time.Second))
	if !ok || lo != 0 || hi != 99 {
		t.Fatalf("full window = %d..%d ok=%v", lo, hi, ok)
	}
}

func TestGaussianKernel(t *testing.T) {
	k := GaussianKernel{Sigma: 10}
	if p := k.Prob(0); p != 1 {
		t.Fatalf("p(0) = %v", p)
	}
	if p := k.Prob(10); math.Abs(p-math.Exp(-0.5)) > 1e-12 {
		t.Fatalf("p(sigma) = %v", p)
	}
	if k.Prob(5) != k.Prob(-5) {
		t.Fatal("kernel must be symmetric")
	}
	if k.Support() != 60 {
		t.Fatalf("support = %v", k.Support())
	}
	degenerate := GaussianKernel{}
	if degenerate.Prob(0) != 1 || degenerate.Prob(1) != 0 {
		t.Fatal("sigma<=0 kernel should be a delta")
	}
}

func TestTriangularAndExponentialKernels(t *testing.T) {
	tri := TriangularKernel{Width: 20}
	if tri.Prob(0) != 1 || tri.Prob(10) != 0.5 || tri.Prob(20) != 0 || tri.Prob(25) != 0 {
		t.Fatalf("triangular: %v %v %v %v", tri.Prob(0), tri.Prob(10), tri.Prob(20), tri.Prob(25))
	}
	exp := ExponentialKernel{Tau: 10}
	if exp.Prob(0) != 1 {
		t.Fatal("exp p(0) != 1")
	}
	if p := exp.Prob(10); math.Abs(p-math.Exp(-1)) > 1e-12 {
		t.Fatalf("exp p(tau) = %v", p)
	}
	if exp.Prob(-10) != exp.Prob(10) {
		t.Fatal("exp kernel must be symmetric")
	}
	for _, k := range []Kernel{tri, exp, GaussianKernel{Sigma: 3}} {
		if k.String() == "" {
			t.Fatal("kernel must describe itself")
		}
	}
}

func TestKernelProbRangeProperty(t *testing.T) {
	kernels := []Kernel{
		GaussianKernel{Sigma: 10}, TriangularKernel{Width: 15}, ExponentialKernel{Tau: 7},
	}
	f := func(d float64) bool {
		if math.IsNaN(d) || math.IsInf(d, 0) {
			return true
		}
		for _, k := range kernels {
			p := k.Prob(d)
			if p < 0 || p > 1 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestAccumulatorConstruction(t *testing.T) {
	tl := mustTimeline(t, time.Second, 10)
	if _, err := NewAccumulator(nil, GaussianKernel{Sigma: 1}); err == nil {
		t.Fatal("nil timeline must error")
	}
	if _, err := NewAccumulator(tl, nil); err == nil {
		t.Fatal("nil kernel must error")
	}
}

func TestAccumulatorMatchesEval(t *testing.T) {
	tl := mustTimeline(t, 10*time.Second, 200)
	kernel := GaussianKernel{Sigma: 10}
	acc, err := NewAccumulator(tl, kernel)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(42))
	var chosen []int
	for i := 0; i < 50; i++ {
		x := rng.Intn(tl.N())
		chosen = append(chosen, x)
		acc.Add(x)
	}
	want := Eval(tl, kernel, chosen)
	if math.Abs(acc.Total()-want) > 1e-6 {
		t.Fatalf("incremental total = %v, eval = %v", acc.Total(), want)
	}
	if math.Abs(acc.Average()-want/float64(tl.N())) > 1e-9 {
		t.Fatalf("average mismatch")
	}
}

func TestAccumulatorGainThenAddConsistent(t *testing.T) {
	tl := mustTimeline(t, 10*time.Second, 100)
	acc, err := NewAccumulator(tl, GaussianKernel{Sigma: 20})
	if err != nil {
		t.Fatal(err)
	}
	for _, i := range []int{10, 12, 50, 99, 0} {
		predicted := acc.Gain(i)
		before := acc.Total()
		realized := acc.Add(i)
		if math.Abs(predicted-realized) > 1e-9 {
			t.Fatalf("Gain(%d)=%v but Add returned %v", i, predicted, realized)
		}
		if math.Abs(acc.Total()-(before+realized)) > 1e-9 {
			t.Fatal("total did not advance by realized gain")
		}
	}
}

func TestAccumulatorDiminishingReturns(t *testing.T) {
	// Submodularity: adding the same instant twice gives a smaller second
	// gain; and the gain of i never increases as the set grows.
	tl := mustTimeline(t, 10*time.Second, 100)
	acc, err := NewAccumulator(tl, GaussianKernel{Sigma: 15})
	if err != nil {
		t.Fatal(err)
	}
	g1 := acc.Add(50)
	g2 := acc.Gain(50)
	if g2 >= g1 {
		t.Fatalf("second gain %v >= first %v", g2, g1)
	}
	gainBefore := acc.Gain(53)
	acc.Add(48)
	gainAfter := acc.Gain(53)
	if gainAfter > gainBefore+1e-12 {
		t.Fatalf("gain increased after adding nearby measurement: %v -> %v", gainBefore, gainAfter)
	}
}

func TestAccumulatorCoveragePerInstant(t *testing.T) {
	tl := mustTimeline(t, 10*time.Second, 100)
	acc, err := NewAccumulator(tl, GaussianKernel{Sigma: 10})
	if err != nil {
		t.Fatal(err)
	}
	acc.Add(50)
	if c := acc.Coverage(50); math.Abs(c-1) > 1e-12 {
		t.Fatalf("coverage at measurement = %v, want 1", c)
	}
	want := GaussianKernel{Sigma: 10}.Prob(10)
	if c := acc.Coverage(51); math.Abs(c-want) > 1e-12 {
		t.Fatalf("coverage at neighbor = %v, want %v", c, want)
	}
	if c := acc.Coverage(0); c > 1e-8 {
		t.Fatalf("coverage far away = %v, want ~0", c)
	}
}

func TestAccumulatorResetAndClone(t *testing.T) {
	tl := mustTimeline(t, 10*time.Second, 50)
	acc, err := NewAccumulator(tl, GaussianKernel{Sigma: 10})
	if err != nil {
		t.Fatal(err)
	}
	acc.Add(10)
	acc.Add(20)
	clone := acc.Clone()
	if clone.Total() != acc.Total() {
		t.Fatal("clone total differs")
	}
	clone.Add(30)
	if clone.Total() <= acc.Total() {
		t.Fatal("clone add did not increase clone total")
	}
	if acc.Coverage(30) == clone.Coverage(30) {
		t.Fatal("clone mutation leaked into original")
	}
	acc.Reset()
	if acc.Total() != 0 || acc.Coverage(10) != 0 {
		t.Fatal("reset did not clear state")
	}
}

func TestAccumulatorWindowBoundsEffort(t *testing.T) {
	// With a compact kernel, measurements must not affect instants outside
	// the support.
	tl := mustTimeline(t, 10*time.Second, 1000)
	acc, err := NewAccumulator(tl, TriangularKernel{Width: 30})
	if err != nil {
		t.Fatal(err)
	}
	acc.Add(500)
	if acc.Coverage(496) != 0 {
		t.Fatalf("coverage outside support = %v", acc.Coverage(496))
	}
	if acc.Coverage(504) != 0 {
		t.Fatalf("coverage outside support = %v", acc.Coverage(504))
	}
	if acc.Coverage(498) <= 0 {
		t.Fatal("coverage inside support should be positive")
	}
}

// cauchyKernel has unbounded support (Support ≤ 0).
type cauchyKernel struct{ scale float64 }

func (k cauchyKernel) Prob(d float64) float64 { return 1 / (1 + (d/k.scale)*(d/k.scale)) }
func (k cauchyKernel) Support() float64       { return 0 }
func (k cauchyKernel) String() string         { return "cauchy" }

// TestAccumulatorTableMatchesProb holds the tabulated kernel to the calls
// it replaced: every entry read for a measurement at i and a target j is
// bit-identical to kernel.Prob(tl.OffsetSeconds(i, j)), and Gain, Add and
// Total match an accumulator calling Prob directly, bit for bit.
func TestAccumulatorTableMatchesProb(t *testing.T) {
	kernels := []Kernel{
		GaussianKernel{Sigma: 10}, GaussianKernel{Sigma: 3.7}, TriangularKernel{Width: 30},
		ExponentialKernel{Tau: 7}, cauchyKernel{scale: 12},
	}
	rng := rand.New(rand.NewSource(5))
	for _, step := range []time.Duration{300 * time.Millisecond, time.Second, 1500 * time.Millisecond, 7 * time.Second, 10 * time.Second} {
		for _, n := range []int{1, 2, 50, 300} {
			tl := mustTimeline(t, step, n)
			for _, k := range kernels {
				acc, err := NewAccumulator(tl, k)
				if err != nil {
					t.Fatal(err)
				}
				for i := 0; i < n; i++ {
					lo, hi := acc.window(i)
					for j := lo; j <= hi; j++ {
						got, want := acc.prob[j-i+acc.span], k.Prob(tl.OffsetSeconds(i, j))
						if math.Float64bits(got) != math.Float64bits(want) {
							t.Fatalf("%s step %v n %d: p(%d,%d) table %v, Prob %v", k, step, n, i, j, got, want)
						}
					}
				}
				// Reference: the accumulator's loops with direct Prob calls.
				miss := make([]float64, n)
				for j := range miss {
					miss[j] = 1
				}
				var total float64
				for round := 0; round < 12; round++ {
					for i := 0; i < n; i++ {
						lo, hi := acc.window(i)
						var want float64
						for j := lo; j <= hi; j++ {
							want += miss[j] * k.Prob(tl.OffsetSeconds(i, j))
						}
						if got := acc.Gain(i); math.Float64bits(got) != math.Float64bits(want) {
							t.Fatalf("%s step %v n %d round %d: Gain(%d) = %v, reference %v", k, step, n, round, i, got, want)
						}
					}
					i := rng.Intn(n)
					lo, hi := acc.window(i)
					var want float64
					for j := lo; j <= hi; j++ {
						delta := miss[j] * k.Prob(tl.OffsetSeconds(i, j))
						want += delta
						miss[j] -= delta
					}
					total += want
					if got := acc.Add(i); math.Float64bits(got) != math.Float64bits(want) {
						t.Fatalf("%s: Add(%d) = %v, reference %v", k, i, got, want)
					}
					if math.Float64bits(acc.Total()) != math.Float64bits(total) {
						t.Fatalf("%s: Total %v, reference %v", k, acc.Total(), total)
					}
				}
			}
		}
	}
}

// Property: Accumulator total equals reference Eval for random schedules.
func TestAccumulatorEvalProperty(t *testing.T) {
	tl := mustTimeline(t, 10*time.Second, 64)
	kernel := GaussianKernel{Sigma: 12}
	f := func(raw []uint8) bool {
		acc, err := NewAccumulator(tl, kernel)
		if err != nil {
			return false
		}
		var instants []int
		for _, r := range raw {
			i := int(r) % tl.N()
			instants = append(instants, i)
			acc.Add(i)
		}
		return math.Abs(acc.Total()-Eval(tl, kernel, instants)) < 1e-6
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

// Property: total coverage is monotone in the schedule and bounded by N.
func TestCoverageMonotoneBoundedProperty(t *testing.T) {
	tl := mustTimeline(t, 10*time.Second, 64)
	f := func(raw []uint8) bool {
		acc, err := NewAccumulator(tl, GaussianKernel{Sigma: 25})
		if err != nil {
			return false
		}
		prev := 0.0
		for _, r := range raw {
			acc.Add(int(r) % tl.N())
			if acc.Total() < prev-1e-9 || acc.Total() > float64(tl.N())+1e-9 {
				return false
			}
			prev = acc.Total()
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

func BenchmarkAccumulatorAdd(b *testing.B) {
	tl, err := NewTimeline(t0, 10*time.Second, 1080)
	if err != nil {
		b.Fatal(err)
	}
	acc, err := NewAccumulator(tl, GaussianKernel{Sigma: 10})
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		acc.Add(i % tl.N())
	}
}

func BenchmarkAccumulatorGain(b *testing.B) {
	tl, err := NewTimeline(t0, 10*time.Second, 1080)
	if err != nil {
		b.Fatal(err)
	}
	acc, err := NewAccumulator(tl, GaussianKernel{Sigma: 10})
	if err != nil {
		b.Fatal(err)
	}
	for i := 0; i < 500; i++ {
		acc.Add((i * 7) % tl.N())
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		acc.Gain(i % tl.N())
	}
}
