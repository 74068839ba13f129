package main

import (
	"bytes"
	"fmt"
	"runtime"

	"pipette/internal/bench"
	"pipette/internal/cache"
	"pipette/internal/checkpoint"
	"pipette/internal/graph"
	"pipette/internal/isa"
	"pipette/internal/profile"
	"pipette/internal/sim"
	"pipette/internal/sparse"
)

// A cell is one simulation: inputs, a system configuration and a builder.
// The three simulation workloads are lists of cells; each cell's Run() is
// one timed unit.
type cell struct {
	name       string
	cores      int
	cacheScale int
	prefetch   bool
	physRegs   int    // 0 = core default
	numQueues  int    // 0 = core default
	genSpan    string // layer that generates the input ("" when the builder does)
	gen        func(seed int64) bench.Builder
	serialTwin func(seed int64) bench.Builder // pipette_1c: the model.speedup_over_serial baseline
}

func (c cell) config() sim.Config {
	cfg := sim.DefaultConfig()
	cfg.Cores = c.cores
	cfg.WatchdogCycles = 10_000_000
	cfg.Cache = cache.DefaultConfig().Scale(c.cacheScale)
	cfg.Cache.StreamPrefetch = c.prefetch
	if c.physRegs > 0 {
		cfg.Core.PhysRegs = c.physRegs
	}
	if c.numQueues > 0 {
		cfg.Core.NumQueues = c.numQueues
	}
	return cfg
}

// Input seeds follow graph.Inputs and sparse.Inputs, so -seed 1 generates
// the harness's own inputs at a different size: road = seed+14,
// collaboration = seed+10, rma10-class matrix = seed+24, YCSB = seed+98.
func road(n int, seed int64) *graph.Graph   { return graph.Road(n, n, seed+14) }
func collab(n int, seed int64) *graph.Graph { return graph.Collaboration(n, seed+10) }

// pick returns full, or smoke under -smoke.
func pick(smoke bool, full, small int) int {
	if smoke {
		return small
	}
	return full
}

// pipetteCells is the paper's subject: one core, four SMT threads, RAs, all
// six applications. Sizes put each Run() at 0.2-0.4 s on the reference
// host so a round takes under 2 s.
func pipetteCells(smoke bool) []cell {
	one := func(name, span string, gen, twin func(int64) bench.Builder) cell {
		return cell{name: name, cores: 1, cacheScale: 8, prefetch: true, genSpan: span, gen: gen, serialTwin: twin}
	}
	bfsN, ccN, prdN, radiiN := pick(smoke, 160, 20), pick(smoke, 18000, 300), pick(smoke, 90, 14), pick(smoke, 2000, 200)
	spmmN, spmmBand := pick(smoke, 80, 24), pick(smoke, 20, 4)
	keys, queries := pick(smoke, 20000, 400), pick(smoke, 6000, 60)
	rm := func(seed int64) *sparse.Matrix { return sparse.Banded("rma10-class", spmmN, spmmBand, seed+24) }
	cells := []cell{
		one("bfs/pipette/Rd", "graph.generate",
			func(s int64) bench.Builder { return bench.BFSPipette(road(bfsN, s), 0, 4, true) },
			func(s int64) bench.Builder { return bench.BFSSerial(road(bfsN, s), 0) }),
		one("cc/pipette/Co", "graph.generate",
			func(s int64) bench.Builder { return bench.CCPipette(collab(ccN, s), true) },
			func(s int64) bench.Builder { return bench.CCSerial(collab(ccN, s)) }),
		one("prd/pipette/Rd", "graph.generate",
			func(s int64) bench.Builder { return bench.PRDPipette(road(prdN, s), 2, true) },
			func(s int64) bench.Builder { return bench.PRDSerial(road(prdN, s), 2) }),
		one("radii/pipette/Co", "graph.generate",
			func(s int64) bench.Builder { return bench.RadiiPipette(collab(radiiN, s), true) },
			func(s int64) bench.Builder { return bench.RadiiSerial(collab(radiiN, s)) }),
		one("spmm/pipette/Rm", "sparse.generate",
			func(s int64) bench.Builder { m := rm(s); return bench.SpMMPipette(m, m, true) },
			func(s int64) bench.Builder { m := rm(s); return bench.SpMMSerial(m, m) }),
		one("silo/pipette/ycsbc", "",
			func(s int64) bench.Builder { return bench.SiloPipette(keys, queries, true, s+98) },
			func(s int64) bench.Builder { return bench.SiloSerial(keys, queries, s+98) }),
	}
	if smoke {
		return cells[:1]
	}
	return cells
}

// memboundCells is kernelbench's membound regime: caches scaled down 64x
// and no prefetcher, so a serial core sits behind DRAM misses most cycles.
func memboundCells(smoke bool) []cell {
	n := pick(smoke, 270, 20)
	mb := func(name string, gen func(int64) bench.Builder) cell {
		return cell{name: name, cores: 1, cacheScale: 64, prefetch: false, genSpan: "graph.generate", gen: gen}
	}
	cells := []cell{
		mb("bfs/serial/Rd", func(s int64) bench.Builder { return bench.BFSSerial(road(n, s), 0) }),
		mb("prd/serial/Rd", func(s int64) bench.Builder { return bench.PRDSerial(road(n, s), 1) }),
	}
	if smoke {
		return cells[:1]
	}
	return cells
}

// multicoreCells are Fig. 17's configurations: every one of them takes the
// deferred produce/commit-replay path and moves values through connectors.
func multicoreCells(smoke bool) []cell {
	n, n16 := pick(smoke, 90, 14), 64
	mc := func(name string, cores, prf, nq int, gen func(int64) bench.Builder) cell {
		return cell{name: name, cores: cores, cacheScale: 8, prefetch: true, physRegs: prf, numQueues: nq, genSpan: "graph.generate", gen: gen}
	}
	cells := []cell{
		mc("bfs/streaming/Rd", 4, 0, 0, func(s int64) bench.Builder { return bench.BFSStreaming(road(n, s), 0) }),
		mc("prd/streaming/Rd", 4, 0, 0, func(s int64) bench.Builder { return bench.PRDStreaming(road(n, s), 2) }),
		mc("bfs/multicore4/Rd", 4, 0, 0, func(s int64) bench.Builder { return bench.BFSMulticore(road(n, s), 0, 4) }),
		mc("bfs/multicore16/Rd", 16, 280, 36, func(s int64) bench.Builder { return bench.BFSMulticore(road(n16, s), 0, 16) }),
	}
	if smoke {
		return cells[:1]
	}
	return cells
}

// cellRef is what a cell's first run produced; every later run of the cell
// must reproduce it exactly.
type cellRef struct {
	cycles, committed uint64
	hash              string
}

// simDriver runs a list of cells.
type simDriver struct {
	cells    []cell
	ckptCell int // index of the cell the checkpoint micro-driver uses, -1 for none
	siloKeys int // keys of the workload's Silo cell, 0 when it has none
	refs     map[string]cellRef

	acc   *simAcc               // counters of the current traced round
	progs map[*isa.Program]bool // programs seen by Core.LoadHook in traced rounds
}

// simAcc sums one traced round's counters over its cells.
type simAcc struct {
	runS                            float64
	kern                            profile.KernelSnapshot
	barrierNS                       uint64
	cycles, coreCycles, profCycles  uint64
	uops, committed, branches, misp uint64
	cvTraps, enq, deq               uint64
	occSum, occMax, raSum           uint64
	raPeak                          int
	slots                           [profile.NumCategories]uint64
	sent, cvsSent, creditStall      uint64
	cache                           cache.Stats
	footprint                       uint64
	hashS                           float64
}

func (d *simDriver) prepare(*run) error { d.refs = map[string]cellRef{}; return nil }
func (d *simDriver) close()             {}

func (d *simDriver) warm(r *run, rec *roundRec) error { return d.round(r, rec) }

func (d *simDriver) round(r *run, rec *roundRec) error {
	tracing := r.tr != nil
	if tracing {
		d.acc = &simAcc{}
		d.progs = map[*isa.Program]bool{}
	}
	for _, c := range d.cells {
		runtime.GC() // the last cell's system is garbage; see measure
		setup := r.tr.start(r.root, "setup", c.name)
		var b bench.Builder
		if c.genSpan != "" {
			g := r.tr.start(setup, c.genSpan, c.name)
			b = c.gen(r.opt.seed)
			g.end()
		} else {
			b = c.gen(r.opt.seed)
		}
		n := r.tr.start(setup, "sim.new", c.name)
		s := sim.New(c.config())
		n.end()
		if tracing {
			s.EnableKernelProf()
			s.EnableProfiling()
			for _, co := range s.Cores {
				co.LoadHook = func(_ int, p *isa.Program) { d.progs[p] = true }
			}
		}
		bl := r.tr.start(setup, "bench.build", c.name)
		check := b(s)
		bl.end()
		rec.setup += setup.end()

		rs := r.tr.start(r.root, "sim.run", c.name)
		res, err := s.Run()
		wall := rs.end()
		rec.add(c.name, wall, res.Cycles)

		ck := r.tr.start(r.root, "bench.check", c.name)
		if err == nil {
			err = check()
		}
		ck.end()
		hs := r.tr.start(r.root, "checkpoint.statehash", c.name)
		hash, herr := s.StateHash()
		hashWall := hs.end()
		if err == nil {
			err = herr
		}
		ref, seen := d.refs[c.name]
		if err == nil && !seen {
			ref = cellRef{res.Cycles, res.Committed, hash}
			d.refs[c.name] = ref
		}
		if err == nil && (ref != cellRef{res.Cycles, res.Committed, hash}) {
			err = fmt.Errorf("run differs from the cell's first run: cycles %d/%d committed %d/%d hash %.12s/%.12s",
				res.Cycles, ref.cycles, res.Committed, ref.committed, hash, ref.hash)
		}
		r.op(err == nil, "%s: %v", c.name, err)
		if res.Cycles == 0 {
			return fmt.Errorf("%s simulated no cycles: %v", c.name, err)
		}
		if tracing {
			d.acc.add(s, res, wall.Seconds(), hashWall.Seconds())
		}
	}
	return nil
}

func (a *simAcc) add(s *sim.System, res sim.Result, runS, hashS float64) {
	a.runS += runS
	a.hashS += hashS
	a.cycles += res.Cycles
	a.committed += res.Committed
	snap := s.ProfSnapshot("")
	if k := snap.Kernel; k != nil {
		a.kern.TickedCycles += k.TickedCycles
		a.kern.FFCycles += k.FFCycles
		a.kern.FFJumps += k.FFJumps
		a.kern.ProduceNS += k.ProduceNS
		a.kern.CommitNS += k.CommitNS
		a.kern.FFNS += k.FFNS
		var worst uint64
		for _, w := range k.BarrierWaitNS {
			worst = max(worst, w)
		}
		a.barrierNS += worst
	}
	for _, cs := range res.CoreStats {
		a.coreCycles += cs.Cycles
		a.uops += cs.Uops
		a.branches += cs.Branches
		a.misp += cs.Mispredicts
		a.cvTraps += cs.CVTraps
		a.enq += cs.Enqueues
		a.deq += cs.Dequeues
		a.occSum += cs.QueueOccupancySum
		a.occMax = max(a.occMax, cs.QueueOccupancyMax)
	}
	for _, p := range snap.Cores {
		a.profCycles += p.Cycles
		a.raSum += p.RAOccSum
		a.raPeak = max(a.raPeak, p.RAPeak)
		for i, n := range p.Slots {
			a.slots[i] += n
		}
	}
	for _, cn := range snap.Connectors {
		a.sent += cn.Sent
		a.cvsSent += cn.CVsSent
		a.creditStall += cn.CreditStall
	}
	addCache(&a.cache, res.CacheStats)
	a.footprint = max(a.footprint, s.Mem.Brk())
}

// addCache adds the counters reportCache reports.
func addCache(sum *cache.Stats, cs cache.Stats) {
	sum.L1Hits += cs.L1Hits
	sum.L2Hits += cs.L2Hits
	sum.L3Hits += cs.L3Hits
	sum.DRAMAccesses += cs.DRAMAccesses
	sum.Prefetches += cs.Prefetches
	sum.Writebacks += cs.Writebacks
}

// report turns the last traced round's sums into per-layer metrics.
func (a *simAcc) report(out map[string]float64) {
	f := func(n uint64) float64 { return float64(n) }
	produce, commit, ff := f(a.kern.ProduceNS)/1e9, f(a.kern.CommitNS)/1e9, f(a.kern.FFNS)/1e9
	out["sim.cycles"] = f(a.cycles)
	out["sim.ticked_cycles"] = f(a.kern.TickedCycles)
	out["sim.ff_cycles"] = f(a.kern.FFCycles)
	out["sim.ff_jumps"] = f(a.kern.FFJumps)
	out["sim.ff_cycle_frac"] = ratio(f(a.kern.FFCycles), f(a.kern.TickedCycles+a.kern.FFCycles))
	out["sim.produce_s"] = produce
	out["sim.commit_s"] = commit
	out["sim.ff_s"] = ff
	out["sim.other_s"] = a.runS - produce - commit - ff
	out["sim.barrier_wait_s"] = f(a.barrierNS) / 1e9

	out["core.uops"] = f(a.uops)
	out["core.committed"] = f(a.committed)
	out["core.ipc"] = ratio(f(a.committed), f(a.cycles))
	out["core.mispredict_ratio"] = ratio(f(a.misp), f(a.branches))
	out["core.cv_traps"] = f(a.cvTraps)
	out["core.ns_per_uop"] = ratio(f(a.kern.ProduceNS), f(a.uops))
	var slots uint64
	for _, n := range a.slots {
		slots += n
	}
	frac := func(cats ...profile.Category) float64 {
		var n uint64
		for _, c := range cats {
			n += a.slots[c]
		}
		return ratio(f(n), f(slots))
	}
	out["core.slot_frac.retired"] = frac(profile.CatRetired)
	out["core.slot_frac.frontend"] = frac(profile.CatFrontend)
	out["core.slot_frac.trap"] = frac(profile.CatTrap)
	out["core.slot_frac.backend"] = frac(profile.CatBackend)
	out["core.slot_frac.backend_mem"] = frac(profile.CatBackendL2, profile.CatBackendL3, profile.CatBackendDRAM)
	out["core.slot_frac.idle"] = frac(profile.CatIdle)

	out["queue.enqueues"] = f(a.enq)
	out["queue.dequeues"] = f(a.deq)
	out["queue.mean_mapped_regs"] = ratio(f(a.occSum), f(a.coreCycles))
	out["queue.peak_mapped_regs"] = f(a.occMax)
	out["queue.full_slot_frac"] = frac(profile.CatQueueFull)
	out["queue.empty_slot_frac"] = frac(profile.CatQueueEmpty)
	out["ra.mean_occupancy"] = ratio(f(a.raSum), f(a.profCycles))
	out["ra.peak_occupancy"] = float64(a.raPeak)
	out["connector.sent"] = f(a.sent)
	out["connector.cvs_sent"] = f(a.cvsSent)
	out["connector.credit_stall_cycles"] = f(a.creditStall)

	reportCache(out, a.cache, a.committed)
	out["mem.footprint_mb"] = f(a.footprint) / 1e6
	out["checkpoint.statehash_ms"] = a.hashS * 1e3
}

func reportCache(out map[string]float64, cs cache.Stats, committed uint64) {
	out["cache.l1_hits"] = float64(cs.L1Hits)
	out["cache.l2_hits"] = float64(cs.L2Hits)
	out["cache.l3_hits"] = float64(cs.L3Hits)
	out["cache.dram_accesses"] = float64(cs.DRAMAccesses)
	out["cache.prefetches"] = float64(cs.Prefetches)
	out["cache.writebacks"] = float64(cs.Writebacks)
	out["cache.dram_mpki"] = ratio(float64(cs.DRAMAccesses)*1000, float64(committed))
}

func (d *simDriver) finish(r *run) error {
	if !r.traced {
		return nil
	}
	d.acc.report(r.layer)
	var insts, fused int
	var progs []*isa.Program
	for p := range d.progs {
		progs = append(progs, p)
		insts += len(p.Code)
		fused += isa.Predecode(p).NFused
	}
	r.layer["isa.static_insts"] = float64(insts)
	r.layer["isa.fused_pair_ratio"] = ratio(float64(2*fused), float64(insts))
	r.layer["isa.predecode_ns_per_inst"] = microPredecode(progs)
	r.layer["queue.op_ns"] = microQueue()
	r.layer["cache.access_ns_hit"], r.layer["cache.access_ns_miss"] = microCache()
	r.layer["mem.rw_ns"] = microMem()

	var speedups []float64
	for _, c := range d.cells {
		if c.serialTwin == nil {
			continue
		}
		sp := r.tr.start(r.root, "model.serial_twin", c.name)
		cfg := c.config()
		res, err := bench.Run(sim.New(cfg), c.serialTwin(r.opt.seed))
		sp.end()
		r.op(err == nil, "%s serial twin: %v", c.name, err)
		if err == nil {
			speedups = append(speedups, float64(res.Cycles)/float64(d.refs[c.name].cycles))
		}
	}
	r.layer["model.speedup_over_serial"] = geomean(speedups)
	if d.siloKeys > 0 {
		r.layer["btree.build_s"] = microBtree(d.siloKeys)
	}
	if d.ckptCell >= 0 && d.ckptCell < len(d.cells) {
		return d.checkpointMicro(r, d.cells[d.ckptCell])
	}
	return nil
}

// checkpointMicro saves the cell mid-run, restores the snapshot into a
// freshly built system as a new process would, and finishes the run there;
// the resumed state hash must equal the uninterrupted run's.
func (d *simDriver) checkpointMicro(r *run, c cell) error {
	ref := d.refs[c.name]
	s := sim.New(c.config())
	c.gen(r.opt.seed)(s)
	if _, err := s.RunUntil(ref.cycles / 2); err != nil {
		return fmt.Errorf("checkpoint %s: run to midpoint: %w", c.name, err)
	}
	var snap bytes.Buffer
	sv := r.tr.start(r.root, "checkpoint.save", c.name)
	err := s.Save(&snap, checkpoint.Workload{})
	saveWall := sv.end()
	if err != nil {
		return fmt.Errorf("checkpoint %s: save: %w", c.name, err)
	}
	fresh := sim.New(c.config())
	check := c.gen(r.opt.seed)(fresh)
	rs := r.tr.start(r.root, "checkpoint.restore", c.name)
	_, err = fresh.Restore(bytes.NewReader(snap.Bytes()))
	restoreWall := rs.end()
	var hash string
	if err == nil {
		_, err = fresh.Run()
	}
	if err == nil {
		err = check()
	}
	if err == nil {
		hash, err = fresh.StateHash()
	}
	if err == nil && hash != ref.hash {
		err = fmt.Errorf("resumed state hash %.12s, uninterrupted %.12s", hash, ref.hash)
	}
	r.op(err == nil, "checkpoint %s: %v", c.name, err)
	r.layer["checkpoint.save_ms"] = saveWall.Seconds() * 1e3
	r.layer["checkpoint.restore_ms"] = restoreWall.Seconds() * 1e3
	r.layer["checkpoint.snapshot_kb"] = float64(snap.Len()) / 1e3
	return nil
}
