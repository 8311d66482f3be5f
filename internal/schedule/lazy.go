package schedule

import "sor/internal/coverage"

// The WithLazyGreedy engine: a lazy greedy over timeline instants rather
// than over (user, instant) ground elements.
//
// A measurement's marginal gain depends only on its instant, never on the
// user taking it, so the generic engine (submodular.LazyGreedy over the
// ground set built by buildGround) keeps one heap entry per (user,
// instant) pair — Σ|Tk| entries, each refreshed separately — for at most
// N distinct gains. Here each instant owns one heap entry keyed by
//
//	bound on the instant's gain        descending
//	lowest user that can still take it ascending
//	instant                            ascending
//
// which is exactly submodular.LazyGreedy's order on the ground element
// (user, instant): maximum gain first, ties to the lowest element index,
// because buildGround numbers elements user-major then instant. Gains only
// fall as measurements are added, and the lowest feasible user only rises
// (users fill up and never empty, and a user takes an instant at most
// once), so a stale key is never below the entry's true key and the lazy
// argument holds unchanged: the first entry whose key is fresh at the top
// of the heap is the element the generic engine picks. Tests hold the two
// engines to identical choices and bit-identical coverage.

// instantEntry is one instant's heap entry.
type instantEntry struct {
	bound   float64 // upper bound on the instant's marginal gain
	user    int     // no user below this one can still take the instant
	instant int
	round   int // selection round at which bound and user were computed
}

// instantHeap is a max-heap of instantEntry by the key above. Keys only
// ever lose priority, so sifting down is the only repair it needs.
type instantHeap []instantEntry

func (h instantHeap) before(a, b int) bool {
	if h[a].bound != h[b].bound {
		return h[a].bound > h[b].bound
	}
	if h[a].user != h[b].user {
		return h[a].user < h[b].user
	}
	return h[a].instant < h[b].instant
}

func (h instantHeap) down(i int) {
	for {
		best := i
		if l := 2*i + 1; l < len(h) && h.before(l, best) {
			best = l
		}
		if r := 2*i + 2; r < len(h) && h.before(r, best) {
			best = r
		}
		if best == i {
			return
		}
		h[i], h[best] = h[best], h[i]
		i = best
	}
}

// pop removes the top entry.
func (h *instantHeap) pop() {
	old := *h
	n := len(old) - 1
	old[0] = old[n]
	*h = old[:n]
	h.down(0)
}

// minGreedyGain is the gain at or below which a measurement is not worth
// scheduling; both engines stop there.
const minGreedyGain = 1e-12

// instantGreedy runs the lazy greedy over instants on acc, which may
// already hold prior measurements. wins[k] is user k's feasible window
// and budget. It returns the chosen (user, instant) pairs in selection
// order and the number of marginal-gain evaluations made.
func instantGreedy(acc *coverage.Accumulator, wins []userWindow, n int) (picks []element, oracleCalls int) {
	used := make([]int, len(wins))
	// next returns the lowest user ≥ from that can still take instant i,
	// or -1.
	next := func(from, i int) int {
		for k := from; k < len(wins); k++ {
			if w := wins[k]; used[k] < w.budget && w.lo <= i && i <= w.hi {
				return k
			}
		}
		return -1
	}
	h := make(instantHeap, 0, n)
	for i := 0; i < n; i++ {
		u := next(0, i)
		if u < 0 {
			continue
		}
		oracleCalls++
		if g := acc.Gain(i); g > minGreedyGain {
			h = append(h, instantEntry{bound: g, user: u, instant: i})
		}
	}
	for i := len(h)/2 - 1; i >= 0; i-- {
		h.down(i)
	}
	round := 0
	for len(h) > 0 {
		top := &h[0]
		if top.round != round {
			// Stale key: move the cursor past users that filled up, then
			// refresh the bound and reconsider.
			u := next(top.user, top.instant)
			if u < 0 {
				h.pop()
				continue
			}
			oracleCalls++
			g := acc.Gain(top.instant)
			if g <= minGreedyGain {
				h.pop()
				continue
			}
			top.bound, top.user, top.round = g, u, round
			h.down(0)
			continue
		}
		acc.Add(top.instant)
		used[top.user]++
		picks = append(picks, element{user: top.user, instant: top.instant})
		// The chosen user cannot take this instant again; the entry keeps
		// its bound and goes stale with the new round.
		top.user++
		h.down(0)
		round++
	}
	return picks, oracleCalls
}
