package main

import (
	"encoding/json"
	"os"
	"sort"
	"sync"
	"time"
)

// A span is one call from the benchmark into a layer of the program. Spans
// are recorded from the benchmark's own files only; the program is not
// instrumented. Unit names the timed unit (cell, experiment, job) the span
// belongs to, so all spans of one unit share an identifier.
type span struct {
	Name   string
	Unit   string
	Lane   int // Chrome-trace thread: 0 for the driver, 1+n for client n
	Parent int // index into tracer.spans, -1 for a root
	Start  time.Duration
	End    time.Duration
}

// tracer keeps spans in memory until the run ends. A nil tracer records
// nothing, so untraced runs pay only the time.Now calls their own
// measurements need anyway.
type tracer struct {
	t0    time.Time
	mu    sync.Mutex
	spans []span
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// open is a started span. The zero parent (noSpan) makes a root.
type open struct {
	tr    *tracer
	id    int
	start time.Time
}

var noSpan = open{id: -1}

// start opens a span under parent. It always reads the clock, so end can
// return the duration to callers that time their own work with it.
func (tr *tracer) start(parent open, name, unit string) open {
	return tr.startLane(parent, name, unit, 0)
}

func (tr *tracer) startLane(parent open, name, unit string, lane int) open {
	o := open{tr: tr, id: -1, start: time.Now()}
	if tr == nil {
		return o
	}
	tr.mu.Lock()
	o.id = len(tr.spans)
	tr.spans = append(tr.spans, span{Name: name, Unit: unit, Lane: lane, Parent: parent.id, Start: o.start.Sub(tr.t0), End: -1})
	tr.mu.Unlock()
	return o
}

// end closes the span and returns how long it was open.
func (o open) end() time.Duration {
	now := time.Now()
	if o.tr != nil && o.id >= 0 {
		o.tr.mu.Lock()
		o.tr.spans[o.id].End = now.Sub(o.tr.t0)
		o.tr.mu.Unlock()
	}
	return now.Sub(o.start)
}

// selfTimes returns, per span, its duration minus the part of its interval
// that its direct children cover. Children may overlap each other (clients
// run concurrently under one loop span), so their intervals are merged
// before subtracting; a child reaching outside its parent is clipped.
func selfTimes(spans []span) []time.Duration {
	kids := make([][]int, len(spans))
	for i, s := range spans {
		if s.Parent >= 0 {
			kids[s.Parent] = append(kids[s.Parent], i)
		}
	}
	self := make([]time.Duration, len(spans))
	for i, s := range spans {
		if s.End < s.Start {
			continue // never closed
		}
		type iv struct{ a, b time.Duration }
		var ivs []iv
		for _, k := range kids[i] {
			a, b := spans[k].Start, spans[k].End
			if a < s.Start {
				a = s.Start
			}
			if b > s.End {
				b = s.End
			}
			if b > a {
				ivs = append(ivs, iv{a, b})
			}
		}
		sort.Slice(ivs, func(x, y int) bool { return ivs[x].a < ivs[y].a })
		var covered, edge time.Duration
		edge = s.Start
		for _, v := range ivs {
			if v.a > edge {
				edge = v.a
			}
			if v.b > edge {
				covered += v.b - edge
				edge = v.b
			}
		}
		self[i] = s.End - s.Start - covered
	}
	return self
}

// selfUnder sums self time, in seconds, by span name over the descendants
// of span root.
func (tr *tracer) selfUnder(root int) map[string]float64 {
	out := map[string]float64{}
	if tr == nil {
		return out
	}
	tr.mu.Lock()
	defer tr.mu.Unlock()
	self := selfTimes(tr.spans)
	under := make([]bool, len(tr.spans))
	for i, s := range tr.spans { // a parent always precedes its children
		if s.Parent >= 0 && (s.Parent == root || under[s.Parent]) {
			under[i] = true
			out[s.Name] += self[i].Seconds()
		}
	}
	return out
}

// writeChrome writes the spans as Chrome trace-event JSON (complete "X"
// events, microsecond timestamps). args carries the span's own id, its
// parent's id and the unit, so the parent links survive the viewer's
// flattening into lanes.
func (tr *tracer) writeChrome(path string) error {
	type event struct {
		Name string         `json:"name"`
		Ph   string         `json:"ph"`
		Ts   float64        `json:"ts"`
		Dur  float64        `json:"dur"`
		Pid  int            `json:"pid"`
		Tid  int            `json:"tid"`
		Args map[string]any `json:"args"`
	}
	tr.mu.Lock()
	events := make([]event, 0, len(tr.spans))
	for i, s := range tr.spans {
		if s.End < s.Start {
			continue
		}
		events = append(events, event{
			Name: s.Name, Ph: "X", Pid: 1, Tid: s.Lane,
			Ts:   float64(s.Start) / float64(time.Microsecond),
			Dur:  float64(s.End-s.Start) / float64(time.Microsecond),
			Args: map[string]any{"id": i, "parent": s.Parent, "unit": s.Unit},
		})
	}
	tr.mu.Unlock()
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := json.NewEncoder(f).Encode(map[string]any{"traceEvents": events, "displayTimeUnit": "ms"}); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
