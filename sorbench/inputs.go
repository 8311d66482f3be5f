package main

// Inputs: every workload's apps, participants, reports, profiles and
// arrival schedules are pure functions of (workload, seed, size), so the
// same seed always offers the same load. Task IDs are the one exception:
// the server assigns them on participate, and the generator fills them
// into the report templates at send time.

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"hash"
	"math"
	"math/rand"
	"sort"
	"time"

	"sor"
	"sor/internal/sim"
	"sor/internal/wire"
)

// Categories served by the benchmark's deployed shape.
const (
	catIngest = "bench-ingest"
	catBig    = "bench-big"
	catDeep   = "bench-deep"
	catJoin   = "bench-join"
)

// Rank features: two value-like and two directional columns, like the
// coffee-shop catalog.
var benchFeatures = []sor.Feature{
	{Name: "temperature", Unit: "°F", Default: sor.Preference{Kind: sor.PrefValue, Value: 73}},
	{Name: "brightness", Unit: "lux", Default: sor.Preference{Kind: sor.PrefMax}},
	{Name: "noise", Unit: "", Default: sor.Preference{Kind: sor.PrefMin}},
	{Name: "wifi", Unit: "dBm", Default: sor.Preference{Kind: sor.PrefMax}},
}

// benchCatalog is the category→features catalog every node serves.
func benchCatalog() map[string][]sor.Feature {
	return map[string][]sor.Feature{
		catIngest: benchFeatures,
		catBig:    benchFeatures,
		catDeep:   benchFeatures,
		catJoin:   benchFeatures,
	}
}

// size holds every knob that scales a workload. full is what the
// benchmark runs; tiny is the smoke test's.
type size struct {
	// ingest
	ingestApps, ingestUsers int
	ingestRate              float64 // A open-loop ops/s
	ingestBatchEvery        int     // every n-th A op is a 32-report batch
	ingestWindow            int     // A saturation in-flight window (batches)
	// rank
	bigPlaces, deepPlaces int
	nearProfiles          int
	rankRate              float64 // A near-default reads/s
	deepRate              float64 // A deep reads/s
	rankWindow            int
	oracleSamples         int
	// join_storm
	joinApps      []int // steady population per app; the last is the largest
	joinPeriodSec int
	joinBudget    int
	joinRate      float64 // mean participates/s
	joinWindow    int
	// B trickle pacing: rank's, and join_storm's, which leaves slack
	// over a routed batch's latency under the storm
	trickleEvery, joinTrickleEvery time.Duration
	// setups per run, by workload (setup_s is their median): rank's
	// seeding and join_storm's initial populations make each of their
	// setups about fifteen times longer than ingest's, so they take fewer
	setups map[string]int
}

func fullSize() size {
	return size{
		ingestApps: 8, ingestUsers: 64, ingestRate: 600, ingestBatchEvery: 8, ingestWindow: 16,
		bigPlaces: 2000, deepPlaces: 120, nearProfiles: 1024,
		rankRate: 600, deepRate: 8, rankWindow: 4, oracleSamples: 8,
		joinApps: []int{10, 25, 40, 55}, joinPeriodSec: 10800, joinBudget: 17, joinRate: 4, joinWindow: 4,
		trickleEvery: 100 * time.Millisecond, joinTrickleEvery: 250 * time.Millisecond,
		setups: map[string]int{"ingest": 11, "rank": 3, "join_storm": 3},
	}
}

func tinySize() size {
	return size{
		ingestApps: 2, ingestUsers: 8, ingestRate: 100, ingestBatchEvery: 8, ingestWindow: 4,
		bigPlaces: 300, deepPlaces: 24, nearProfiles: 64,
		rankRate: 100, deepRate: 4, rankWindow: 2, oracleSamples: 3,
		joinApps: []int{4, 8}, joinPeriodSec: 10800, joinBudget: 17, joinRate: 8, joinWindow: 2,
		trickleEvery: 100 * time.Millisecond, joinTrickleEvery: 250 * time.Millisecond,
		setups: map[string]int{"ingest": 1, "rank": 1, "join_storm": 1},
	}
}

// appDef is one registered application (one place).
type appDef struct {
	ID, Category, Place string
	Lat, Lon            float64
	PeriodSec           int64
}

// appsFor lists the applications the deployed shape registers for a
// workload, in creation order. Apps do not depend on the seed.
func appsFor(workload string, sz size) []appDef {
	var apps []appDef
	add := func(category string, n int, period int64) {
		for i := 0; i < n; i++ {
			apps = append(apps, appDef{
				ID:        fmt.Sprintf("%s-%d", category, i),
				Category:  category,
				Place:     fmt.Sprintf("%s-place-%d", category, i),
				Lat:       40 + float64(len(apps)%400)*0.01,
				Lon:       -76 + float64(len(apps)/400)*0.01,
				PeriodSec: period,
			})
		}
	}
	switch workload {
	case "ingest":
		add(catIngest, sz.ingestApps, 3600)
	case "rank":
		add(catBig, sz.bigPlaces, 3600)
		add(catDeep, sz.deepPlaces, 3600)
	case "join_storm":
		add(catJoin, len(sz.joinApps), int64(sz.joinPeriodSec))
	}
	return apps
}

// streamRNG derives an independent, reproducible random stream per
// purpose from the run seed.
func streamRNG(seed int64, purpose string) *rand.Rand {
	h := sha256.Sum256([]byte(fmt.Sprintf("%d/%s", seed, purpose)))
	return rand.New(rand.NewSource(int64(binary.LittleEndian.Uint64(h[:8]))))
}

// poissonDue draws n arrival offsets of a Poisson process at rate/s.
func poissonDue(r *rand.Rand, rate float64, n int) []time.Duration {
	due := make([]time.Duration, n)
	t := 0.0
	for i := range due {
		t += r.ExpFloat64() / rate
		due[i] = time.Duration(t * float64(time.Second))
	}
	return due
}

// participant is one generated phone user joining one app.
type participant struct {
	User, App string
	Lat, Lon  float64
	Budget    int
	// Shape and Q fix the feature profile of the place's reports.
	Shape int
	Q     float64
}

// Report shapes.
const (
	shapeRandom = iota // independent uniform readings
	shapeLatent        // big category: columns track latent quality Q
	shapeAnti          // deep category: columns conflict along Q
)

func (p participant) message(token string) *wire.Participate {
	return &wire.Participate{
		UserID: p.User,
		Token:  token,
		AppID:  p.App,
		Loc:    wire.Location{Lat: p.Lat, Lon: p.Lon},
		Budget: p.Budget,
	}
}

// reportGen mints DataUpload templates (TaskID left empty) for a fixed
// set of participants. Sequential use is deterministic.
type reportGen struct {
	r      *rand.Rand
	parts  []participant
	prefix string
	seq    int
	base   time.Time
}

func newReportGen(seed int64, purpose string, parts []participant, base time.Time) *reportGen {
	return &reportGen{r: streamRNG(seed, purpose), parts: parts, prefix: purpose, base: base}
}

// next returns the next report for a random participant.
func (g *reportGen) next() *wire.DataUpload {
	return g.report(g.parts[g.r.Intn(len(g.parts))])
}

// report returns the next report for p, shaped by p.Shape.
func (g *reportGen) report(p participant) *wire.DataUpload {
	g.seq++
	at := g.base.Add(time.Duration(g.r.Intn(600)) * time.Second).UnixMilli()
	var temp, light, mic, wifi []float64
	switch p.Shape {
	case shapeLatent:
		// Every column tracks Q with a little independent noise (a few
		// places' spacing), so near-default profiles mostly agree across
		// features and the prefix walk finds clean cuts after short
		// blocks.
		q := p.Q
		jit := func(span float64) float64 { return g.r.NormFloat64() * 0.0002 * span }
		temp = []float64{73 + (1-q)*12 + jit(12)}
		light = []float64{50 + 850*q + jit(850)}
		mic = []float64{0.5 - 0.45*q + jit(0.45)}
		wifi = []float64{-90 + 60*q + jit(60)}
	default:
		x := g.r.Float64()
		if p.Shape == shapeAnti {
			// Temperature, brightness and noise rise with Q while wifi
			// falls, so a profile asking for cold, bright, quiet and weak
			// wifi disagrees with every column.
			x = p.Q
		}
		reading := func(lo, hi float64) []float64 {
			v := lo + (hi-lo)*x
			return []float64{v + g.r.NormFloat64()*0.01*(hi-lo), v, v - g.r.NormFloat64()*0.01*(hi-lo)}
		}
		temp, light, mic, wifi = reading(60, 90), reading(50, 900), reading(0.01, 0.5), reading(-90, -30)
		if p.Shape == shapeAnti {
			for i := range wifi {
				wifi[i] = -120 - wifi[i]
			}
		}
	}
	series := func(name string, vals []float64) wire.SensorSeries {
		return wire.SensorSeries{Sensor: name, Samples: []wire.SensorSample{{AtUnixMilli: at, WindowMilli: 1000, Readings: vals}}}
	}
	return &wire.DataUpload{
		AppID:    p.App,
		UserID:   p.User,
		ReportID: fmt.Sprintf("%s-%d", g.prefix, g.seq),
		Series: []wire.SensorSeries{
			series("temperature", temp), series("light", light),
			series("microphone", mic), series("wifi", wifi),
		},
	}
}

// batch returns n fresh reports.
func (g *reportGen) batch(n int) []*wire.DataUpload {
	out := make([]*wire.DataUpload, n)
	for i := range out {
		out[i] = g.next()
	}
	return out
}

// profilePop is the seeded population of near-default preference
// profiles; pick draws from it with a Zipf popularity so a few profiles
// are hot (cache hits) and the long tail misses. Profile i prefers a
// temperature of 73 − i/256 °F, so every profile is a distinct cache key,
// and none is warmer than the big category's coldest place, so every
// column still ranks by the places' latent quality.
type profilePop struct {
	profiles [][]wire.PrefEntry
	zipf     *rand.Zipf
	r        *rand.Rand
}

func newNearProfiles(seed int64, n int) *profilePop {
	r := streamRNG(seed, "near-profiles")
	p := &profilePop{r: streamRNG(seed, "near-pick")}
	for i := 0; i < n; i++ {
		p.profiles = append(p.profiles, []wire.PrefEntry{
			{Feature: "temperature", Kind: int(sor.PrefValue), Value: 73 - float64(i)/256, Weight: 1 + r.Intn(3)},
			{Feature: "brightness", Kind: int(sor.PrefDefault), Weight: r.Intn(3)},
			{Feature: "noise", Kind: int(sor.PrefDefault), Weight: 1 + r.Intn(3)},
			{Feature: "wifi", Kind: int(sor.PrefDefault), Weight: r.Intn(3)},
		})
	}
	p.zipf = rand.NewZipf(p.r, 1.1, 4, uint64(n-1))
	return p
}

func (p *profilePop) pick() (int, []wire.PrefEntry) {
	i := int(p.zipf.Uint64())
	return i, p.profiles[i]
}

// deepProfile draws an anti-correlated profile: it wants what the deep
// category's columns never offer together, so the prefix walk finds no
// early clean cut and the query is mcmf-bound. Only the preferred
// temperature varies, always below the category's coldest place, so
// every draw is a distinct cache key that costs the same solve.
func deepProfile(r *rand.Rand) []wire.PrefEntry {
	return []wire.PrefEntry{
		{Feature: "temperature", Kind: int(sor.PrefValue), Value: 40 + 15*r.Float64(), Weight: 5},
		{Feature: "brightness", Kind: int(sor.PrefMax), Weight: 4},
		{Feature: "noise", Kind: int(sor.PrefMin), Weight: 5},
		{Feature: "wifi", Kind: int(sor.PrefMin), Weight: 4},
	}
}

// joinEvent is one join_storm arrival: a participate into App, paired
// with a leave of the app's longest-present member.
type joinEvent struct {
	Due time.Duration
	App int
	P   participant
}

// joinStorm draws the join_storm arrival schedule: bursty arrivals from
// sim.DrawBurstyParticipants (compressed from the period's first half
// onto the phase), each burst landing on one app.
func joinStorm(seed int64, sz size, apps []appDef, phase time.Duration) ([]joinEvent, error) {
	r := streamRNG(seed, "join-storm")
	users := int(sz.joinRate * phase.Seconds())
	if users < 1 {
		users = 1
	}
	bursts := users / 8
	if bursts < 1 {
		bursts = 1
	}
	start := time.Unix(0, 0).UTC()
	period := time.Duration(sz.joinPeriodSec) * time.Second
	parts, err := sim.DrawBurstyParticipants(r, sim.BurstConfig{
		Users: users, Bursts: bursts, Spread: 3 * time.Minute, Period: period, Budget: sz.joinBudget,
	}, start)
	if err != nil {
		return nil, err
	}
	span := period / 2
	events := make([]joinEvent, len(parts))
	for i, p := range parts {
		burst := i % bursts
		app := burst % len(apps)
		off := p.Arrive.Sub(start)
		events[i] = joinEvent{
			Due: time.Duration(float64(off) / float64(span) * float64(phase)),
			App: app,
			P: participant{
				User: fmt.Sprintf("storm-%d-%s", seed, p.UserID), App: apps[app].ID,
				Lat: apps[app].Lat, Lon: apps[app].Lon, Budget: p.Budget,
			},
		}
	}
	sort.SliceStable(events, func(i, j int) bool { return events[i].Due < events[j].Due })
	return events, nil
}

// inputHash accumulates generated inputs for the same-seed digest.
type inputHash struct{ h hash.Hash }

func newInputHash() *inputHash { return &inputHash{h: sha256.New()} }

func (ih *inputHash) msg(m wire.Message) {
	b, err := wire.Encode(m)
	if err != nil {
		panic(err)
	}
	ih.h.Write(b)
}

func (ih *inputHash) dur(d time.Duration) {
	var b [8]byte
	binary.LittleEndian.PutUint64(b[:], uint64(d))
	ih.h.Write(b[:])
}

func (ih *inputHash) sum() string { return hex.EncodeToString(ih.h.Sum(nil)) }

// percentile is the nearest-rank percentile of sorted xs (q in [0,1]).
func percentile(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	i := int(math.Ceil(q*float64(len(sorted)))) - 1
	if i < 0 {
		i = 0
	}
	if i >= len(sorted) {
		i = len(sorted) - 1
	}
	return sorted[i]
}

// tailPercentile returns the highest whole percentile up to the 99th
// that leaves at least ten samples beyond it, and its value. With fewer
// than 20 samples it returns the median.
func tailPercentile(sorted []float64) (float64, float64) {
	n := len(sorted)
	q := 0.5
	if n >= 20 {
		q = math.Min(0.99, math.Floor(float64(n-10)/float64(n)*100)/100)
	}
	return q, percentile(sorted, q)
}

func median(xs []float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if len(s) == 0 {
		return 0
	}
	if len(s)%2 == 1 {
		return s[len(s)/2]
	}
	return (s[len(s)/2-1] + s[len(s)/2]) / 2
}
