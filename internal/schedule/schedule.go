// Package schedule implements SOR's sensing scheduler (§III). Given a
// scheduling period discretized into N instants, a set of participating
// mobile users — each present over a window [tSk, tEk] with a sensing
// budget NBk — and a coverage kernel, it assigns each user the time
// instants at which to sense so that total coverage (Eq. 2) is maximized.
//
// The problem is monotone submodular maximization over a partition matroid
// (one part per user, capacity = budget), solved by the greedy Algorithm 1
// with its 1/2-approximation guarantee. The package also implements the
// paper's §V-C baseline (sense every baseline interval from arrival) and an
// online scheduler that re-plans as users arrive and leave.
package schedule

import (
	"errors"
	"fmt"
	"slices"
	"sort"
	"time"

	"sor/internal/coverage"
	"sor/internal/matroid"
	"sor/internal/submodular"
)

// Participant describes one mobile user's availability for a scheduling
// period.
type Participant struct {
	// UserID identifies the mobile user.
	UserID string
	// Arrive and Leave bound the user's presence in the target place
	// (the paper's [tSk, tEk]).
	Arrive time.Time
	Leave  time.Time
	// Budget is NBk — the maximum number of measurements the user is
	// willing to take during the period.
	Budget int
}

// Validate checks the participant's fields.
func (p Participant) Validate() error {
	if p.UserID == "" {
		return errors.New("schedule: participant needs a user id")
	}
	if p.Leave.Before(p.Arrive) {
		return fmt.Errorf("schedule: participant %s leaves before arriving", p.UserID)
	}
	if p.Budget < 0 {
		return fmt.Errorf("schedule: participant %s has negative budget", p.UserID)
	}
	return nil
}

// Assignment is one user's sensing schedule Φk: the instants (by timeline
// index) at which the user must sense.
type Assignment struct {
	UserID   string
	Instants []int
}

// Times materializes the assignment's instants on the timeline.
func (a Assignment) Times(tl *coverage.Timeline) []time.Time {
	out := make([]time.Time, len(a.Instants))
	for i, idx := range a.Instants {
		out[i] = tl.Time(idx)
	}
	return out
}

// Plan is a complete schedule for one period.
type Plan struct {
	// Assignments maps user id to that user's schedule. Users that could
	// not be scheduled (empty window, zero budget) map to an empty
	// assignment.
	Assignments map[string]Assignment
	// TotalCoverage is Σ_j p(tj, Φ) over the whole timeline (Eq. 2).
	TotalCoverage float64
	// AverageCoverage is TotalCoverage / N — §V-C's metric.
	AverageCoverage float64
	// OracleCalls counts marginal-gain evaluations (ablation metric): one
	// per (user, instant) element scanned by the eager greedy, one per
	// instant evaluated by the instant-level lazy greedy.
	OracleCalls int
	// Seq numbers the plans of one Online in the order their replans ran
	// (1, 2, ...); it is 0 for a plan from a bare Scheduler. Consumers
	// that distribute plans of concurrent events use it to drop a plan a
	// newer one has overtaken.
	Seq int
}

// Measurements flattens the plan into (user, instant) pairs sorted by
// instant then user.
func (p *Plan) Measurements() []Measurement {
	var out []Measurement
	for _, a := range p.Assignments {
		for _, i := range a.Instants {
			out = append(out, Measurement{UserID: a.UserID, Instant: i})
		}
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Instant != out[j].Instant {
			return out[i].Instant < out[j].Instant
		}
		return out[i].UserID < out[j].UserID
	})
	return out
}

// Measurement is a single scheduled sensing action.
type Measurement struct {
	UserID  string
	Instant int
}

// Scheduler computes sensing schedules over a fixed timeline and kernel.
type Scheduler struct {
	tl     *coverage.Timeline
	kernel coverage.Kernel
	lazy   bool
}

// Option configures a Scheduler.
type Option func(*Scheduler)

// WithLazyGreedy switches the scheduler to the instant-level lazy greedy
// (lazy.go): the same choices as Algorithm 1's eager greedy, with far
// fewer oracle calls and a heap of one entry per instant.
func WithLazyGreedy() Option {
	return func(s *Scheduler) { s.lazy = true }
}

// NewScheduler builds a scheduler for one scheduling period.
func NewScheduler(tl *coverage.Timeline, kernel coverage.Kernel, opts ...Option) (*Scheduler, error) {
	if tl == nil {
		return nil, errors.New("schedule: nil timeline")
	}
	if kernel == nil {
		return nil, errors.New("schedule: nil kernel")
	}
	s := &Scheduler{tl: tl, kernel: kernel}
	for _, o := range opts {
		o(s)
	}
	return s, nil
}

// Timeline returns the scheduler's timeline.
func (s *Scheduler) Timeline() *coverage.Timeline { return s.tl }

// element is a ground-set element: user k sensing at instant t ∈ Tk.
type element struct {
	user    int // index into participants
	instant int // timeline index
}

// userWindow is one participant's feasible instants [lo, hi] (the paper's
// Tk) and budget; budget 0 marks a user who can take no measurement
// (zero budget, or a window that misses the timeline).
type userWindow struct {
	lo, hi, budget int
}

// windows validates the participants and resolves each one's window.
func (s *Scheduler) windows(parts []Participant) ([]userWindow, error) {
	wins := make([]userWindow, len(parts))
	for k, p := range parts {
		if err := p.Validate(); err != nil {
			return nil, err
		}
		if lo, hi, ok := s.tl.IndexRange(p.Arrive, p.Leave); ok && p.Budget > 0 {
			wins[k] = userWindow{lo: lo, hi: hi, budget: p.Budget}
		}
	}
	return wins, nil
}

// buildGround enumerates the ground set of feasible (user, instant) pairs
// and the partition structure (one part per user).
func (s *Scheduler) buildGround(parts []Participant) (elems []element, partOf []int, caps []int, err error) {
	wins, err := s.windows(parts)
	if err != nil {
		return nil, nil, nil, err
	}
	elems, partOf, caps = ground(wins)
	return elems, partOf, caps, nil
}

// ground enumerates the (user, instant) pairs of the users' windows,
// user-major, with each pair's part and each part's capacity.
func ground(wins []userWindow) (elems []element, partOf []int, caps []int) {
	caps = make([]int, len(wins))
	for k, w := range wins {
		caps[k] = w.budget
		if w.budget == 0 {
			continue
		}
		for i := w.lo; i <= w.hi; i++ {
			elems = append(elems, element{user: k, instant: i})
			partOf = append(partOf, k)
		}
	}
	return elems, partOf, caps
}

// coverageObjective adapts the accumulator to the submodular engine. Two
// ground elements at the same instant (different users) have the same
// marginal gain; the accumulator aggregates via Eq. 1.
type coverageObjective struct {
	acc   *coverage.Accumulator
	elems []element
}

var _ submodular.Objective = (*coverageObjective)(nil)

func (c *coverageObjective) Gain(e int) float64 { return c.acc.Gain(c.elems[e].instant) }
func (c *coverageObjective) Add(e int)          { c.acc.Add(c.elems[e].instant) }

// Greedy computes a schedule with the paper's Algorithm 1 — or, under
// WithLazyGreedy, with the instant-level lazy greedy (lazy.go), which
// makes the same choices. Seed measurements already committed (e.g. taken
// earlier in the period by departed users) can be supplied via prior;
// they contribute coverage but consume no budget.
func (s *Scheduler) Greedy(parts []Participant, prior []int) (*Plan, error) {
	wins, err := s.windows(parts)
	if err != nil {
		return nil, err
	}
	acc, err := coverage.NewAccumulator(s.tl, s.kernel)
	if err != nil {
		return nil, err
	}
	for _, i := range prior {
		if i < 0 || i >= s.tl.N() {
			return nil, fmt.Errorf("schedule: prior instant %d out of range", i)
		}
		acc.Add(i)
	}
	plan := &Plan{Assignments: make(map[string]Assignment, len(parts))}
	for _, p := range parts {
		plan.Assignments[p.UserID] = Assignment{UserID: p.UserID}
	}
	var picks []element
	if s.lazy {
		picks, plan.OracleCalls = instantGreedy(acc, wins, s.tl.N())
	} else if elems, partOf, caps := ground(wins); len(elems) > 0 {
		m, err := matroid.NewPartition(partOf, caps)
		if err != nil {
			return nil, err
		}
		res, err := submodular.Greedy(&coverageObjective{acc: acc, elems: elems}, m, minGreedyGain)
		if err != nil {
			return nil, err
		}
		plan.OracleCalls = res.OracleCalls
		picks = make([]element, len(res.Chosen))
		for n, e := range res.Chosen {
			picks[n] = elems[e]
		}
	}
	// Size each assignment before filling it: one allocation per user.
	counts := make([]int, len(parts))
	for _, el := range picks {
		counts[el.user]++
	}
	for k, c := range counts {
		if c > 0 {
			a := plan.Assignments[parts[k].UserID]
			a.Instants = slices.Grow(a.Instants, c)
			plan.Assignments[parts[k].UserID] = a
		}
	}
	for _, el := range picks {
		a := plan.Assignments[parts[el.user].UserID]
		a.Instants = append(a.Instants, el.instant)
		plan.Assignments[parts[el.user].UserID] = a
	}
	for id, a := range plan.Assignments {
		sort.Ints(a.Instants)
		plan.Assignments[id] = a
	}
	plan.TotalCoverage = acc.Total()
	plan.AverageCoverage = acc.Average()
	return plan, nil
}

// Baseline computes the §V-C baseline schedule: each user senses every
// interval seconds starting at arrival, for budget times (clipped to the
// user's window and the period).
func (s *Scheduler) Baseline(parts []Participant, interval time.Duration) (*Plan, error) {
	if interval <= 0 {
		return nil, errors.New("schedule: baseline interval must be positive")
	}
	acc, err := coverage.NewAccumulator(s.tl, s.kernel)
	if err != nil {
		return nil, err
	}
	plan := &Plan{Assignments: make(map[string]Assignment, len(parts))}
	for _, p := range parts {
		if err := p.Validate(); err != nil {
			return nil, err
		}
		a := Assignment{UserID: p.UserID}
		// Constrain to the same feasible instants the greedy sees (Tk), so
		// the two schedulers are compared on identical ground sets.
		lo, hi, ok := s.tl.IndexRange(p.Arrive, p.Leave)
		if ok {
			for n := 0; n < p.Budget; n++ {
				at := p.Arrive.Add(time.Duration(n) * interval)
				if at.After(p.Leave) || at.After(s.tl.End()) {
					break
				}
				if at.Before(s.tl.Start()) {
					continue
				}
				idx := s.tl.Index(at)
				if idx < lo || idx > hi {
					continue
				}
				a.Instants = append(a.Instants, idx)
				acc.Add(idx)
			}
		}
		plan.Assignments[p.UserID] = a
	}
	plan.TotalCoverage = acc.Total()
	plan.AverageCoverage = acc.Average()
	return plan, nil
}

// Verify checks a plan against every budget and window constraint: no
// user over budget, outside their window, or scheduled twice at one
// instant. Tests use it as a postcondition on scheduler output; the
// server does not call it.
func (s *Scheduler) Verify(parts []Participant, plan *Plan) error {
	if plan == nil {
		return errors.New("schedule: nil plan")
	}
	byID := make(map[string]Participant, len(parts))
	for _, p := range parts {
		byID[p.UserID] = p
	}
	var instants []int
	for id, a := range plan.Assignments {
		p, ok := byID[id]
		if !ok {
			return fmt.Errorf("schedule: plan references unknown user %s", id)
		}
		if len(a.Instants) > p.Budget {
			return fmt.Errorf("schedule: user %s scheduled %d > budget %d",
				id, len(a.Instants), p.Budget)
		}
		lo, hi, ok := s.tl.IndexRange(p.Arrive, p.Leave)
		for _, i := range a.Instants {
			if !ok || i < lo || i > hi {
				return fmt.Errorf("schedule: user %s scheduled outside window at instant %d", id, i)
			}
			instants = append(instants, i)
		}
		seen := make(map[int]bool, len(a.Instants))
		for _, i := range a.Instants {
			if seen[i] {
				return fmt.Errorf("schedule: user %s scheduled twice at instant %d", id, i)
			}
			seen[i] = true
		}
	}
	return nil
}

// Coverage recomputes total coverage of a plan (plus prior measurements)
// from scratch.
func (s *Scheduler) Coverage(plan *Plan, prior []int) float64 {
	instants := append([]int(nil), prior...)
	for _, a := range plan.Assignments {
		instants = append(instants, a.Instants...)
	}
	return coverage.Eval(s.tl, s.kernel, instants)
}
