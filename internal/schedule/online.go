package schedule

import (
	"errors"
	"fmt"
	"sort"
	"sync"
	"time"
)

// Online is the event-driven scheduler the sensing server runs: mobile
// users join (barcode scan) and leave at arbitrary times inside a
// scheduling period, and each event triggers a re-plan of the *future*
// portion of the period. Measurements already executed are kept as prior
// coverage; budgets are decremented as measurements execute so no user is
// ever scheduled past NBk across re-plans. This is the "online algorithm
// [that] calculates a sensing schedule ... based on runtime participation
// information" of §II-B, built on the greedy core.
//
// Online is safe for concurrent use.
type Online struct {
	mu       sync.Mutex
	sched    *Scheduler
	parts    map[string]*onlineUser
	executed []int // instants of measurements already taken
	plan     *Plan // current plan for the future
	replans  int
}

type onlineUser struct {
	p        Participant
	consumed int  // measurements already executed
	left     bool // user departed (geofence exit)
	// charged marks timeline instants this user has already been billed
	// for. A schedule asks for at most one measurement per user per
	// instant, so a second report of the same (user, instant) — overlapping
	// reports, or a replay that slipped past transport dedup — must not
	// consume budget or inflate prior coverage again.
	charged map[int]bool
}

// NewOnline wraps a Scheduler for event-driven use.
func NewOnline(s *Scheduler) (*Online, error) {
	if s == nil {
		return nil, errors.New("schedule: nil scheduler")
	}
	return &Online{sched: s, parts: make(map[string]*onlineUser)}, nil
}

// Join registers a participant at time now; the user's effective window is
// [max(now, Arrive), Leave]. It returns the fresh plan.
func (o *Online) Join(now time.Time, p Participant) (*Plan, error) {
	if err := p.Validate(); err != nil {
		return nil, err
	}
	o.mu.Lock()
	defer o.mu.Unlock()
	if _, ok := o.parts[p.UserID]; ok {
		return nil, fmt.Errorf("schedule: user %s already participating", p.UserID)
	}
	if p.Arrive.Before(now) {
		p.Arrive = now
	}
	o.parts[p.UserID] = &onlineUser{p: p, charged: make(map[int]bool)}
	return o.replanLocked(now)
}

// Leave marks the user as departed at time now (their future measurements
// are dropped; their budget cannot be consumed further) and re-plans.
func (o *Online) Leave(now time.Time, userID string) (*Plan, error) {
	o.mu.Lock()
	defer o.mu.Unlock()
	u, ok := o.parts[userID]
	if !ok {
		return nil, fmt.Errorf("schedule: unknown user %s", userID)
	}
	if u.left {
		return nil, fmt.Errorf("schedule: user %s already left", userID)
	}
	u.left = true
	return o.replanLocked(now)
}

// RecordExecution notes that userID actually sensed at the given timeline
// instant; the measurement becomes prior coverage and consumes budget.
// Recording the same (user, instant) twice is an idempotent no-op: budget
// is charged per distinct instant, exactly once.
func (o *Online) RecordExecution(userID string, instant int) error {
	o.mu.Lock()
	defer o.mu.Unlock()
	u, ok := o.parts[userID]
	if !ok {
		return fmt.Errorf("schedule: unknown user %s", userID)
	}
	if instant < 0 || instant >= o.sched.Timeline().N() {
		return fmt.Errorf("schedule: instant %d out of range", instant)
	}
	if u.charged[instant] {
		return nil
	}
	if u.consumed >= u.p.Budget {
		return fmt.Errorf("schedule: user %s exceeded budget %d", userID, u.p.Budget)
	}
	u.consumed++
	u.charged[instant] = true
	o.executed = append(o.executed, instant)
	return nil
}

// RecordExecutions is the batched form of RecordExecution: it notes all
// instants under one lock acquisition (the server's coalesced ingest path
// uses it so a burst of reports does not take the scheduler lock per
// measurement). Instants past the user's budget or out of range are
// skipped, and instants the user was already charged for are idempotent
// no-ops; it returns how many were newly recorded.
func (o *Online) RecordExecutions(userID string, instants []int) (int, error) {
	o.mu.Lock()
	defer o.mu.Unlock()
	u, ok := o.parts[userID]
	if !ok {
		return 0, fmt.Errorf("schedule: unknown user %s", userID)
	}
	n := o.sched.Timeline().N()
	recorded := 0
	for _, instant := range instants {
		if instant < 0 || instant >= n || u.charged[instant] {
			continue
		}
		if u.consumed >= u.p.Budget {
			break
		}
		u.consumed++
		u.charged[instant] = true
		o.executed = append(o.executed, instant)
		recorded++
	}
	return recorded, nil
}

// UserLedger is one user's budget accounting snapshot.
type UserLedger struct {
	Budget   int
	Consumed int
	Left     bool
}

// Ledger snapshots every participant's budget state (observability; the
// chaos suite compares faulty-run ledgers against fault-free ones).
func (o *Online) Ledger() map[string]UserLedger {
	o.mu.Lock()
	defer o.mu.Unlock()
	out := make(map[string]UserLedger, len(o.parts))
	for id, u := range o.parts {
		out[id] = UserLedger{Budget: u.p.Budget, Consumed: u.consumed, Left: u.left}
	}
	return out
}

// Plan returns the current plan (recomputed at the time of the last event).
func (o *Online) Plan() *Plan {
	o.mu.Lock()
	defer o.mu.Unlock()
	return o.plan
}

// Replans reports how many re-plans have run.
func (o *Online) Replans() int {
	o.mu.Lock()
	defer o.mu.Unlock()
	return o.replans
}

// Replan forces a re-plan for the future as of now (e.g. called on a timer
// after RecordExecution events accumulated).
func (o *Online) Replan(now time.Time) (*Plan, error) {
	o.mu.Lock()
	defer o.mu.Unlock()
	return o.replanLocked(now)
}

// ExecutedInstants returns a copy of all executed measurement instants.
func (o *Online) ExecutedInstants() []int {
	o.mu.Lock()
	defer o.mu.Unlock()
	out := make([]int, len(o.executed))
	copy(out, o.executed)
	sort.Ints(out)
	return out
}

func (o *Online) replanLocked(now time.Time) (*Plan, error) {
	var active []Participant
	for _, u := range o.parts {
		if u.left {
			continue
		}
		remaining := u.p.Budget - u.consumed
		if remaining <= 0 {
			continue
		}
		from := u.p.Arrive
		if from.Before(now) {
			from = now
		}
		if u.p.Leave.Before(from) {
			continue
		}
		active = append(active, Participant{
			UserID: u.p.UserID,
			Arrive: from,
			Leave:  u.p.Leave,
			Budget: remaining,
		})
	}
	sort.Slice(active, func(i, j int) bool { return active[i].UserID < active[j].UserID })
	plan, err := o.sched.Greedy(active, o.executed)
	if err != nil {
		return nil, err
	}
	o.replans++
	plan.Seq = o.replans
	o.plan = plan
	return plan, nil
}
