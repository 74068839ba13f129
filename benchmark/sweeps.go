package main

import (
	"bytes"
	"fmt"
	"os"
	"time"

	"pipette/internal/cache"
	"pipette/internal/harness"
)

// sweepConfig is the matrix sweep_cold, figures_warm and server_closed
// share: harness.Tiny() restricted to three applications, 55 cells. Under
// -smoke it is Silo alone, 5 cells.
func sweepConfig(opt options) harness.Config {
	cfg := harness.Tiny()
	cfg.AppFilter = "bfs,cc,silo"
	if opt.smoke {
		cfg.AppFilter = "silo"
	}
	cfg.Seed = opt.seed
	return cfg
}

// evalCycles is the simulated cycles in a sweep's results, computed or
// cached: what the sweep delivered.
func evalCycles(e *harness.Eval) uint64 {
	var n uint64
	for _, c := range e.Cells {
		n += c.R.Cycles
	}
	return n
}

// sweepOK counts a sweep as one operation per cell: a cell fails when the
// sweep reports it failed or does not return it.
func sweepOK(r *run, e *harness.Eval, want int, what string) {
	for _, f := range e.Sweep.Failures {
		r.op(false, "%s: %s", what, f)
	}
	for i := len(e.Sweep.Failures) + len(e.Cells); i < want; i++ {
		r.op(false, "%s: cell missing from the result matrix", what)
	}
	for range e.Cells {
		r.op(true, "")
	}
}

// sweepDriver is sweep_cold: the whole matrix into an empty cache.
type sweepDriver struct {
	cfg   harness.Config
	first *harness.Eval // first round's matrix; later rounds must equal it
	last  *harness.Eval
	enumS float64
}

func (d *sweepDriver) prepare(*run) error { return nil }
func (d *sweepDriver) close()             {}

func (d *sweepDriver) warm(r *run, rec *roundRec) error { return d.round(r, rec) }

func (d *sweepDriver) round(r *run, rec *roundRec) error {
	setup := r.tr.start(r.root, "setup", "sweep")
	dir, err := os.MkdirTemp(r.opt.tmpRoot, "sweep-cold-*")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	// Enumerating the matrix tells the benchmark how many cells to expect;
	// it generates every input once, as each cell will again.
	en := r.tr.start(setup, "harness.matrix_enum", "sweep")
	keys, _ := d.cfg.Matrix()
	d.enumS = en.end().Seconds()
	rec.setup += setup.end()

	sw := r.tr.start(r.root, "harness.sweep", "sweep")
	e, err := harness.Sweep(d.cfg, harness.SweepOptions{Jobs: r.opt.procs, CacheDir: dir})
	wall := sw.end()
	if err != nil {
		return err
	}
	rec.add("sweep", wall, e.Sweep.SimCycles)
	sweepOK(r, e, len(keys), "sweep_cold")
	if d.first == nil {
		d.first = e
	}
	r.op(d.first.SameResults(e), "sweep_cold: results differ from the first sweep's")
	r.op(e.Sweep.CacheHits == 0, "sweep_cold: %d cache hits in an empty cache", e.Sweep.CacheHits)
	d.last = e
	return nil
}

func (d *sweepDriver) finish(r *run) error {
	if !r.traced {
		return nil
	}
	reportSweep(r.layer, d.last, r.opt.procs)
	r.layer["harness.matrix_enum_ms"] = d.enumS * 1e3
	return nil
}

// reportSweep fills the harness counters, and the simulated counts the
// sweep's cells carry, from one sweep.
func reportSweep(out map[string]float64, e *harness.Eval, jobs int) {
	st := e.Sweep
	out["harness.cells"] = float64(st.Cells)
	out["harness.cells_computed"] = float64(st.CacheMisses)
	out["harness.cache_hit_ratio"] = ratio(float64(st.CacheHits), float64(st.CacheHits+st.CacheMisses))
	out["harness.sim_cycles"] = float64(st.SimCycles)
	out["harness.cells_per_s"] = ratio(float64(st.CacheMisses), st.Wall.Seconds())
	var wallSum, slowest float64
	var cycles, committed, uops, enq, deq uint64
	var cs cache.Stats
	for _, c := range e.Cells {
		if !c.FromCache {
			wallSum += c.WallSeconds
			slowest = max(slowest, c.WallSeconds)
		}
		cycles += c.R.Cycles
		committed += c.R.Committed
		for _, s := range c.R.CoreStats {
			uops += s.Uops
			enq += s.Enqueues
			deq += s.Dequeues
		}
		addCache(&cs, c.R.CacheStats)
	}
	out["harness.cell_wall_sum_s"] = wallSum
	out["harness.slowest_cell_s"] = slowest
	out["harness.worker_util"] = ratio(wallSum, float64(jobs)*st.Wall.Seconds())
	out["sim.cycles"] = float64(cycles)
	out["core.committed"] = float64(committed)
	out["core.uops"] = float64(uops)
	out["core.ipc"] = ratio(float64(committed), float64(cycles))
	out["queue.enqueues"] = float64(enq)
	out["queue.dequeues"] = float64(deq)
	reportCache(out, cs, committed)
}

// warmSweeps is how many cache-served sweeps make the warm_sweep unit. One
// takes 40 ms; five summed repeated to 4-6 % over ten seeds, and timing each
// as a unit of its own did no better, so the unit is simply made longer.
const warmSweeps = 10

// figuresDriver is figures_warm: the cache-served sweep, then every
// experiment of harness.Names() except fig17 rendered into a buffer. fig17
// alone takes 8 s of the set's 11 s and simulates exactly the
// configurations the multicore workload times cell by cell, so it is left
// to that workload to keep a run inside the benchmark's time cap.
type figuresDriver struct {
	cfg    harness.Config
	dir    string
	cells  int
	output map[string][]byte // first round's bytes per experiment
}

// figureNames lists the experiments a round renders. Under -smoke the ones
// that simulate on every call are left out too: their size is not
// configurable and they alone take 2.5 s.
func figureNames(smoke bool) []string {
	var names []string
	for _, n := range harness.Names() {
		if n != "fig17" && !(smoke && computedFigure(n)) {
			names = append(names, n)
		}
	}
	return names
}

// computedSpan names the span (and so the per-layer metric) of each
// experiment that simulates on every call. Those are a timed unit each; the
// others draw from the sweep matrix (or print constants) and are timed
// together as cached_figs.
var computedSpan = map[string]string{
	"fig14":   "harness.fig14",
	"fig15":   "harness.fig15",
	"profile": "harness.profile_exp",
}

func computedFigure(name string) bool { return computedSpan[name] != "" }

func (d *figuresDriver) prepare(r *run) error {
	dir, err := os.MkdirTemp(r.opt.tmpRoot, "figures-warm-*")
	if err != nil {
		return err
	}
	d.dir = dir
	d.output = map[string][]byte{}
	keys, _ := d.cfg.Matrix()
	d.cells = len(keys)
	e, err := harness.Sweep(d.cfg, harness.SweepOptions{Jobs: r.opt.procs, CacheDir: dir})
	if err != nil {
		return err
	}
	sweepOK(r, e, d.cells, "figures_warm cache fill")
	return nil
}

func (d *figuresDriver) close() { os.RemoveAll(d.dir) }

func (d *figuresDriver) warm(r *run, rec *roundRec) error { return d.round(r, rec) }

func (d *figuresDriver) round(r *run, rec *roundRec) error {
	opts := harness.SweepOptions{Jobs: r.opt.procs, CacheDir: d.dir}
	var wall time.Duration
	var cycles uint64
	for i := 0; i < warmSweeps; i++ {
		sw := r.tr.start(r.root, "harness.warm_sweep", "warm_sweep")
		e, err := harness.Sweep(d.cfg, opts)
		wall += sw.end()
		if err != nil {
			return err
		}
		cycles += evalCycles(e)
		r.op(e.Sweep.CacheHits == d.cells && len(e.Sweep.Failures) == 0,
			"figures_warm: warm sweep served %d of %d cells from the cache, %d failed", e.Sweep.CacheHits, d.cells, len(e.Sweep.Failures))
	}
	rec.add("warm_sweep", wall, cycles)

	var cached time.Duration
	for _, name := range figureNames(r.opt.smoke) {
		span, computed := computedSpan[name]
		if !computed {
			span = "harness.cached_figs"
		}
		var buf bytes.Buffer
		sp := r.tr.start(r.root, span, name)
		err := harness.Run(name, &buf, d.cfg, opts)
		dt := sp.end()
		if computed {
			rec.add(name, dt, 0)
		} else {
			cached += dt
		}
		if want, seen := d.output[name]; !seen {
			d.output[name] = buf.Bytes()
		} else if err == nil && !bytes.Equal(want, buf.Bytes()) {
			err = fmt.Errorf("output differs from the first round's")
		}
		if err == nil && buf.Len() == 0 {
			err = fmt.Errorf("no output")
		}
		r.op(err == nil, "figures_warm %s: %v", name, err)
	}
	rec.add("cached_figs", cached, 0)
	return nil
}

func (d *figuresDriver) finish(r *run) error {
	if !r.traced {
		return nil
	}
	e, err := harness.Sweep(d.cfg, harness.SweepOptions{Jobs: r.opt.procs, CacheDir: d.dir})
	if err != nil {
		return err
	}
	reportSweep(r.layer, e, r.opt.procs)
	keys, cores := d.cfg.Matrix()
	r.layer["harness.cache_probe_us"], r.layer["harness.runcell_hit_ms"] = microCacheHit(d.cfg, d.dir, keys[0], cores[keys[0]])
	return nil
}

// microCacheHit times the two ways a cached cell is reached: the bare
// content-addressed probe, and harness.RunCell, which today regenerates
// every input of the matrix before it probes.
func microCacheHit(cfg harness.Config, dir string, key harness.Key, cores int) (probeUS, runCellMS float64) {
	hash := cfg.HashCell(key, cores, false)
	probeUS = perOp(50, func(n int) {
		for i := 0; i < n; i++ {
			if c, ok := harness.LoadCachedCell(dir, hash); ok {
				sink += c.R.Cycles
			}
		}
	}) / 1e3
	runCellMS = perOp(5, func(n int) {
		for i := 0; i < n; i++ {
			if c, hit, err := harness.RunCell(cfg, key, harness.SweepOptions{CacheDir: dir}); err == nil && hit {
				sink += c.R.Cycles
			}
		}
	}) / 1e6
	return probeUS, runCellMS
}
