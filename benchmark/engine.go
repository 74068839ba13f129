package main

import (
	"fmt"
	"os"
	"runtime"
	"strconv"
	"strings"
	"time"
)

// options is one invocation's command line, resolved.
type options struct {
	workload string
	seed     int64
	seconds  float64 // measuring budget of the timed region
	trace    bool
	smoke    bool   // tiny sizes, one measured round: for go test
	procs    int    // GOMAXPROCS = sweep jobs = server workers = clients
	tmpRoot  string // parent of every temp dir the run makes
}

// A driver is one workload. The engine calls prepare once, round once
// discarded and then repeatedly for the measuring budget, and finish after
// the timed region.
type driver interface {
	// prepare does the set-up a run pays once; its time counts as setup_s.
	prepare(r *run) error
	// warm is the one discarded round; most drivers just run a round.
	warm(r *run, rec *roundRec) error
	// round does the per-round set-up and runs every timed unit once.
	round(r *run, rec *roundRec) error
	// finish verifies what needs the whole run and, when r.traced, fills
	// r.layer with the per-layer metrics.
	finish(r *run) error
	// close removes what the driver left on disk.
	close()
}

// run is the state a driver shares with the engine.
type run struct {
	opt       options
	tr        *tracer // non-nil only during traced rounds and a traced finish
	traced    bool    // the invocation asked for per-layer metrics
	root      open    // parent span of the current round
	lastRound int     // span id of the last round started

	attempted, failed int
	failures          []string

	layer  map[string]float64 // per-layer metric values
	detail []metricValue      // workload-specific figures of the untraced rounds
}

// op counts one operation; a false ok is a failed operation.
func (r *run) op(ok bool, format string, args ...any) {
	r.attempted++
	if ok {
		return
	}
	r.failed++
	if len(r.failures) < 8 {
		r.failures = append(r.failures, fmt.Sprintf(format, args...))
	}
}

// roundRec is what one round measured.
type roundRec struct {
	setup time.Duration
	order []string
	units map[string]unitSample
}

// unitSample is one timed unit in one round. cycles is the simulated cycles
// in the results the unit returned (0 for a unit that returns none, such as
// a figure rendered to text).
type unitSample struct {
	wall   time.Duration
	cycles uint64
}

func (rec *roundRec) add(name string, wall time.Duration, cycles uint64) {
	if rec.units == nil {
		rec.units = map[string]unitSample{}
	}
	if _, ok := rec.units[name]; !ok {
		rec.order = append(rec.order, name)
	}
	rec.units[name] = unitSample{wall, cycles}
}

func (rec *roundRec) total() time.Duration {
	var t time.Duration
	for _, u := range rec.units {
		t += u.wall
	}
	return t
}

const maxRounds = 64

// measure runs rounds until the budget is spent: at least minRounds, then
// for as long as one more round of the longest length seen still fits.
func measure(d driver, r *run, budget time.Duration, minRounds int, name string) ([]roundRec, error) {
	var recs []roundRec
	var longest time.Duration
	start := time.Now()
	for len(recs) < maxRounds {
		if len(recs) >= minRounds && time.Since(start)+longest > budget {
			break
		}
		// Collect before the round, outside every span, so every round
		// starts from a collected heap.
		runtime.GC()
		r.root = r.tr.start(noSpan, name, strconv.Itoa(len(recs)))
		r.lastRound = r.root.id
		var rec roundRec
		t0 := time.Now()
		err := d.round(r, &rec)
		r.root.end()
		if err != nil {
			return recs, err
		}
		if dt := time.Since(t0); dt > longest {
			longest = dt
		}
		recs = append(recs, rec)
	}
	return recs, nil
}

// unitWalls gathers, per unit, its wall-clock seconds over the rounds.
func unitWalls(recs []roundRec) (order []string, walls map[string][]float64, cycles map[string]uint64) {
	walls, cycles = map[string][]float64{}, map[string]uint64{}
	for _, rec := range recs {
		for _, name := range rec.order {
			if _, ok := walls[name]; !ok {
				order = append(order, name)
			}
			walls[name] = append(walls[name], rec.units[name].wall.Seconds())
			cycles[name] = rec.units[name].cycles
		}
	}
	return order, walls, cycles
}

// execute runs one workload and returns its section of the document.
func execute(opt options) (*workloadDoc, error) {
	d, err := newDriver(opt)
	if err != nil {
		return nil, err
	}
	defer d.close()
	r := &run{opt: opt, traced: opt.trace, layer: map[string]float64{}}

	t0 := time.Now()
	if err := d.prepare(r); err != nil {
		return nil, fmt.Errorf("%s: set-up: %w", opt.workload, err)
	}
	prep := time.Since(t0)

	// One discarded round: heap growth, page cache and lazy set-up inside
	// the program are not what later rounds pay.
	var first roundRec
	if err := d.warm(r, &first); err != nil {
		return nil, fmt.Errorf("%s: warm-up round: %w", opt.workload, err)
	}

	budget := time.Duration(opt.seconds * float64(time.Second))
	minRounds := 2
	if opt.smoke {
		budget, minRounds = 0, 1
	}
	if opt.trace {
		// The other half measures the same rounds traced; the untraced ones
		// only have to give the overhead its base.
		budget, minRounds = budget/2, 1
	}
	recs, err := measure(d, r, budget, minRounds, "round")
	if err != nil {
		return nil, fmt.Errorf("%s: %w", opt.workload, err)
	}
	rss := peakRSSMB()

	doc := &workloadDoc{Name: opt.workload, Seed: opt.seed, Seconds: opt.seconds, Rounds: len(recs)}
	order, walls, cycles := unitWalls(recs)
	var wall, wq1, wq3 float64
	var npc, nq1, nq3 []float64
	for _, name := range order {
		q1, med, q3 := quartiles(walls[name])
		wall, wq1, wq3 = wall+med, wq1+q1, wq3+q3
		if c := float64(cycles[name]); c > 0 {
			npc, nq1, nq3 = append(npc, med*1e9/c), append(nq1, q1*1e9/c), append(nq3, q3*1e9/c)
		}
		doc.Units = append(doc.Units, unitDoc{Name: name, WallS: med, Q1: q1, Q3: q3, Cycles: cycles[name]})
	}
	var setups []float64
	for _, rec := range recs {
		setups = append(setups, (prep + rec.setup).Seconds())
	}
	sq1, smed, sq3 := quartiles(setups)
	n := len(recs)
	doc.EndToEnd = []metricValue{
		{Name: "wall_s", Unit: "s", Value: wall, N: n, Q1: wq1, Q3: wq3},
		{Name: "host_ns_per_cycle", Unit: "ns", Value: geomean(npc), N: n, Q1: geomean(nq1), Q3: geomean(nq3)},
		{Name: "setup_s", Unit: "s", Value: smed, N: n, Q1: sq1, Q3: sq3},
	}
	// Printed by every run, bounded by none: see endToEnd.
	r.detail = append(r.detail, metricValue{Name: "mem.peak_rss_mb", Unit: "MB", Value: rss, N: 1})
	r.layer["mem.peak_rss_mb"] = rss

	if opt.trace {
		r.tr = newTracer()
		trecs, err := measure(d, r, budget, 1, "traced_round")
		if err != nil {
			return nil, fmt.Errorf("%s: traced: %w", opt.workload, err)
		}
		_, twalls, _ := unitWalls(trecs)
		var twall float64
		for _, name := range order {
			twall += median(twalls[name])
		}
		r.layer["trace.overhead_frac"] = ratio(twall, wall) - 1
		r.layer["bench.first_rep_wall_s"] = first.total().Seconds()
	}
	r.root = r.tr.start(noSpan, "finish", "")
	err = d.finish(r)
	r.root.end()
	if err != nil {
		return nil, fmt.Errorf("%s: %w", opt.workload, err)
	}
	if opt.trace {
		// A span named after a per-layer metric, less its _s suffix, feeds
		// that metric with its self time in the last traced round.
		for name, s := range r.tr.selfUnder(r.lastRound) {
			if isPerLayer(name + "_s") {
				r.layer[name+"_s"] += s
			}
		}
		for _, def := range perLayer {
			doc.PerLayer = append(doc.PerLayer, metricValue{Name: def.Name, Unit: def.Unit, Value: r.layer[def.Name]})
		}
		doc.tracer, doc.layer = r.tr, r.layer
	}
	doc.Detail = r.detail
	doc.Operations = opsDoc{Attempted: r.attempted, Failed: r.failed, Failures: r.failures}
	return doc, nil
}

func isPerLayer(name string) bool {
	for _, def := range perLayer {
		if def.Name == name {
			return true
		}
	}
	return false
}

// peakRSSMB is the process's resident-set high-water mark (VmHWM) since
// the process started, set-up and the discarded round included, which is
// why every workload runs in its own process.
func peakRSSMB() float64 {
	data, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0
	}
	for _, line := range strings.Split(string(data), "\n") {
		if f := strings.Fields(line); len(f) >= 2 && f[0] == "VmHWM:" { // "VmHWM:  27508 kB"
			if kb, err := strconv.ParseFloat(f[1], 64); err == nil {
				return kb / 1024
			}
		}
	}
	return 0
}
