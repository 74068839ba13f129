package main

import (
	"math/rand"
	"time"

	"pipette/internal/btree"
	"pipette/internal/cache"
	"pipette/internal/isa"
	"pipette/internal/mem"
	"pipette/internal/queue"
)

// Micro-drivers time the public entry points of layers that cannot be timed
// in place from outside the program (queue, cache, mem, isa, btree). Each
// runs a fixed operation stream, not one made from -seed, and reports host
// nanoseconds per operation; multiplied by the layer's count in a workload
// it bounds the layer's share of that workload's wall-clock.

// perOp runs f(n) three times and returns the fastest run's ns per
// operation: the floor is what the code costs, the rest is the host.
func perOp(n int, f func(n int)) float64 {
	best := time.Duration(1 << 62)
	for i := 0; i < 3; i++ {
		t0 := time.Now()
		f(n)
		if d := time.Since(t0); d < best {
			best = d
		}
	}
	return float64(best.Nanoseconds()) / float64(n)
}

var sink uint64 // keeps measured results live

// microQueue: one value through a queue, Enq -> MarkReady -> Deq ->
// CommitDeq, the four calls every queued value makes.
func microQueue() float64 {
	q := queue.NewQueue(0, 16)
	return perOp(1_000_000, func(n int) {
		for i := 0; i < n; i++ {
			seq := q.Enq(uint64(i), false, i&63)
			q.MarkReady(seq, uint64(i))
			sink += q.Deq().Val
			sink += uint64(q.CommitDeq())
		}
	})
}

// microCache: Port.Access on the harness's scale-8 hierarchy, once over
// eight L1-resident lines and once at random over 64x the LLC capacity.
func microCache() (hitNS, missNS float64) {
	cfg := cache.DefaultConfig().Scale(8)
	line := uint64(cfg.LineBytes)
	port := cache.New(cfg, 1).Port(0)
	var now uint64
	hitNS = perOp(1_000_000, func(n int) {
		for i := 0; i < n; i++ {
			now += 4
			done, _ := port.Access(now, uint64(i&7)*line, false)
			sink += done
		}
	})
	span := uint64(cfg.L3Sets*cfg.L3Ways) * line * 64
	rng := rand.New(rand.NewSource(1))
	addrs := make([]uint64, 1<<16)
	for i := range addrs {
		addrs[i] = (rng.Uint64() % span) &^ (line - 1)
	}
	port = cache.New(cfg, 1).Port(0)
	missNS = perOp(200_000, func(n int) {
		for i := 0; i < n; i++ {
			now += 200 // past the DRAM latency, so MSHRs never back up
			done, _ := port.Access(now, addrs[i&(len(addrs)-1)], false)
			sink += done
		}
	})
	return hitNS, missNS
}

// microMem: a Write64 and a Read64 of functional memory, striding by a line
// through 4 MB.
func microMem() float64 {
	m := mem.New()
	const words = 1 << 19
	base := m.AllocWords(words)
	return perOp(1_000_000, func(n int) {
		for i := 0; i < n; i++ {
			addr := base + uint64(i*8&(words-1))*8
			m.Write64(addr, uint64(i))
			sink += m.Read64(addr)
		}
	}) / 2
}

// microPredecode: isa.Predecode over the programs the workload loaded,
// per static instruction.
func microPredecode(progs []*isa.Program) float64 {
	insts := 0
	for _, p := range progs {
		insts += len(p.Code)
	}
	if insts == 0 {
		return 0
	}
	const reps = 50
	return perOp(insts*reps, func(int) {
		for i := 0; i < reps; i++ {
			for _, p := range progs {
				sink += uint64(isa.Predecode(p).NFused)
			}
		}
	})
}

// microBtree: btree.Build over the key set bench's Silo builders use,
// which happens inside the builder and so inside bench.build_s.
func microBtree(nKeys int) float64 {
	keys, vals := make([]uint64, nKeys), make([]uint64, nKeys)
	for i := range keys {
		keys[i], vals[i] = uint64(i)*7+3, uint64(i)*13+1
	}
	return perOp(1, func(int) { sink += btree.Build(mem.New(), keys, vals).Root }) / 1e9
}
