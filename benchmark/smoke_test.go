package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"testing"
)

var update = flag.Bool("update", false, "rewrite testdata/document_keys.golden")

func smokeOptions(t *testing.T, workload string, trace bool) options {
	return options{workload: workload, seed: 1, seconds: 1, trace: trace, smoke: true,
		procs: min(runtime.NumCPU(), 4), tmpRoot: t.TempDir()}
}

// smokeRuns holds one traced -smoke run per workload, shared by the tests.
var smokeRuns = map[string]*workloadDoc{}

func smoke(t *testing.T, name string) *workloadDoc {
	t.Helper()
	if w, ok := smokeRuns[name]; ok {
		return w
	}
	opt := smokeOptions(t, name, true)
	w, err := execute(opt)
	if err != nil {
		t.Fatal(err)
	}
	if leftovers, _ := filepath.Glob(filepath.Join(opt.tmpRoot, "*")); len(leftovers) > 0 {
		t.Errorf("%s left %v behind", name, leftovers)
	}
	smokeRuns[name] = w
	return w
}

// TestSmoke runs every workload at -smoke size, traced, so tier-1
// go test ./... covers each driver, every correctness gate and every
// per-layer collector without a long run.
func TestSmoke(t *testing.T) {
	for _, name := range workloads {
		t.Run(name, func(t *testing.T) {
			w := smoke(t, name)
			if w.Operations.Attempted == 0 || w.Operations.Failed != 0 {
				t.Errorf("operations: %d attempted, %d failed: %v", w.Operations.Attempted, w.Operations.Failed, w.Operations.Failures)
			}
			if exitCode(w) != 0 {
				t.Error("exit code should be 0 with no failed operation")
			}
			if len(w.EndToEnd) != len(endToEnd) {
				t.Fatalf("%d end-to-end metrics, want %d", len(w.EndToEnd), len(endToEnd))
			}
			for i, m := range w.EndToEnd {
				if m.Name != endToEnd[i].Name || m.Unit != endToEnd[i].Unit {
					t.Errorf("end-to-end metric %d is %s [%s], want %s [%s]", i, m.Name, m.Unit, endToEnd[i].Name, endToEnd[i].Unit)
				}
				if !(m.Value > 0) {
					t.Errorf("%s = %v: every workload must report every end-to-end metric, never 0", m.Name, m.Value)
				}
			}
			if len(w.PerLayer) != len(perLayer) {
				t.Fatalf("%d per-layer metrics, want %d", len(w.PerLayer), len(perLayer))
			}
			for name := range w.layer {
				if !isPerLayer(name) {
					t.Errorf("driver reported %s, which is not in the per-layer table", name)
				}
			}
			var line struct {
				Correct   bool
				Attempted int
				Failed    int
				Metrics   map[string]struct {
					Value float64
					Unit  string
				}
			}
			if err := json.Unmarshal([]byte(resultLine(w, w.PerLayer)), &line); err != nil {
				t.Fatal(err)
			}
			if !line.Correct || line.Attempted != w.Operations.Attempted || len(line.Metrics) != len(perLayer) {
				t.Errorf("result line: correct=%v attempted=%d metrics=%d", line.Correct, line.Attempted, len(line.Metrics))
			}
		})
	}
}

// TestStories checks, at smoke size, the facts each workload was chosen to
// show: work that must be zero where a layer is bypassed.
func TestStories(t *testing.T) {
	one, serial, multi := smoke(t, "pipette_1c").layer, smoke(t, "serial_membound").layer, smoke(t, "multicore").layer
	for _, m := range []string{"sim.commit_s", "connector.sent"} {
		if one[m] != 0 || serial[m] != 0 {
			t.Errorf("%s is %v on pipette_1c and %v on serial_membound, want 0 on one-core systems", m, one[m], serial[m])
		}
		if multi[m] <= 0 {
			t.Errorf("%s is %v on multicore, want > 0", m, multi[m])
		}
	}
	for _, m := range []string{"queue.enqueues", "ra.peak_occupancy"} {
		if serial[m] != 0 || one[m] <= 0 {
			t.Errorf("%s is %v on serial_membound and %v on pipette_1c, want 0 and > 0", m, serial[m], one[m])
		}
	}
	if serial["sim.ff_cycle_frac"] <= one["sim.ff_cycle_frac"] {
		t.Errorf("fast-forward covers %.2f of serial_membound's cycles and %.2f of pipette_1c's, want more on the membound one",
			serial["sim.ff_cycle_frac"], one["sim.ff_cycle_frac"])
	}
	if one["model.speedup_over_serial"] <= 0 || one["checkpoint.snapshot_kb"] <= 0 {
		t.Errorf("pipette_1c: model.speedup_over_serial %v, checkpoint.snapshot_kb %v, want both > 0",
			one["model.speedup_over_serial"], one["checkpoint.snapshot_kb"])
	}
}

// TestBrokenGateFailsTheRun corrupts one expected value: the cell's next
// run must count as a failed operation, and a run with a failed operation
// must exit non-zero with "correct": false.
func TestBrokenGateFailsTheRun(t *testing.T) {
	opt := smokeOptions(t, "pipette_1c", false)
	d := &simDriver{cells: pipetteCells(true), ckptCell: -1}
	r := &run{opt: opt, layer: map[string]float64{}}
	if err := d.prepare(r); err != nil {
		t.Fatal(err)
	}
	if err := d.round(r, &roundRec{}); err != nil || r.failed != 0 {
		t.Fatalf("clean round: err %v, %d failed operations", err, r.failed)
	}
	name := d.cells[0].name
	ref := d.refs[name]
	ref.cycles++
	d.refs[name] = ref
	if err := d.round(r, &roundRec{}); err != nil {
		t.Fatal(err)
	}
	if r.failed != 1 || len(r.failures) != 1 || !strings.Contains(r.failures[0], "differs from the cell's first run") {
		t.Fatalf("after corrupting the expected cycle count: %d failed operations, messages %v", r.failed, r.failures)
	}
	w := &workloadDoc{Operations: opsDoc{Attempted: r.attempted, Failed: r.failed}}
	if exitCode(w) == 0 {
		t.Error("exit code is 0 with a failed operation")
	}
	if line := resultLine(w, nil); !strings.Contains(line, `"correct":false`) || !strings.Contains(line, `"failed":1`) {
		t.Errorf("result line %s does not report the failure", line)
	}
}

func TestMetricTablesMatchBenchmarkJSON(t *testing.T) {
	c, err := readContract(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, w := range c.Workloads {
		names = append(names, w.Name)
	}
	if fmt.Sprint(names) != fmt.Sprint(workloads) {
		t.Errorf("BENCHMARK.json workloads %v, benchmark has %v", names, workloads)
	}
	if len(c.EndToEnd) != len(endToEnd) {
		t.Fatalf("BENCHMARK.json has %d end-to-end metrics, benchmark has %d", len(c.EndToEnd), len(endToEnd))
	}
	for i, m := range c.EndToEnd {
		if got := (metricDef{m.Name, m.Unit, m.Better}); got != endToEnd[i] {
			t.Errorf("end_to_end[%d]: BENCHMARK.json has %v, benchmark has %v", i, got, endToEnd[i])
		}
		if m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("%s: bound %v outside (0, 0.25]", m.Name, m.Bound)
		}
	}
	if len(c.PerLayer) != len(perLayer) {
		t.Fatalf("BENCHMARK.json has %d per-layer metrics, benchmark has %d", len(c.PerLayer), len(perLayer))
	}
	for i, m := range c.PerLayer {
		if got := (metricDef{m.Name, m.Unit, m.Better}); got != perLayer[i] {
			t.Errorf("per_layer[%d]: BENCHMARK.json has %v, benchmark has %v", i, got, perLayer[i])
		}
	}
}

// keyPaths lists every object key of a JSON document once, in first-seen
// order, as a path with [] for array elements.
func keyPaths(data []byte) ([]string, error) {
	dec := json.NewDecoder(bytes.NewReader(data))
	var paths []string
	seen := map[string]bool{}
	var walk func(prefix string) error
	walk = func(prefix string) error {
		tok, err := dec.Token()
		if err != nil {
			return err
		}
		switch tok {
		case json.Delim('{'):
			for dec.More() {
				key, err := dec.Token()
				if err != nil {
					return err
				}
				p := prefix + "." + key.(string)
				if !seen[p] {
					seen[p] = true
					paths = append(paths, p)
				}
				if err := walk(p); err != nil {
					return err
				}
			}
			_, err = dec.Token()
		case json.Delim('['):
			for dec.More() {
				if err := walk(prefix + "[]"); err != nil {
					return err
				}
			}
			_, err = dec.Token()
		}
		return err
	}
	return paths, walk("$")
}

// TestDocumentGolden pins the pipette.benchmark/v1 document: key order,
// and the names of the metrics in the order they are written.
func TestDocumentGolden(t *testing.T) {
	w := smoke(t, "server_closed")
	doc := document{Schema: Schema, Provenance: newProvenance(true), Workloads: []*workloadDoc{w},
		AA: []aaRow{{Workload: w.Name, Metric: "wall_s", A: 1, B: 1, Bound: 0.1, OK: true}}}
	data, err := json.Marshal(doc)
	if err != nil {
		t.Fatal(err)
	}
	paths, err := keyPaths(data)
	if err != nil {
		t.Fatal(err)
	}
	var b strings.Builder
	fmt.Fprintf(&b, "schema %s\n", Schema)
	for _, p := range paths {
		fmt.Fprintf(&b, "key %s\n", p)
	}
	for _, m := range w.EndToEnd {
		fmt.Fprintf(&b, "end_to_end %s %s\n", m.Name, m.Unit)
	}
	for _, m := range w.Detail {
		fmt.Fprintf(&b, "detail %s %s\n", m.Name, m.Unit)
	}
	for _, m := range w.PerLayer {
		fmt.Fprintf(&b, "per_layer %s %s\n", m.Name, m.Unit)
	}
	golden := filepath.Join("testdata", "document_keys.golden")
	if *update {
		if err := os.WriteFile(golden, []byte(b.String()), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatal(err)
	}
	if b.String() != string(want) {
		t.Errorf("document layout changed (rerun with -update if intended):\n got:\n%s\nwant:\n%s", b.String(), want)
	}
}

func TestChromeTraceHasParentLinks(t *testing.T) {
	w := smoke(t, "multicore")
	path := filepath.Join(t.TempDir(), "trace.json")
	if err := w.tracer.writeChrome(path); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var tr struct {
		TraceEvents []struct {
			Name string
			Ph   string
			Ts   float64
			Dur  float64
			Args struct {
				ID, Parent int
				Unit       string
			}
		}
	}
	if err := json.Unmarshal(data, &tr); err != nil {
		t.Fatal(err)
	}
	byID := map[int]int{}
	for i, ev := range tr.TraceEvents {
		byID[ev.Args.ID] = i
	}
	runs := 0
	for _, ev := range tr.TraceEvents {
		if ev.Ph != "X" || ev.Dur < 0 {
			t.Fatalf("event %+v is not a complete event", ev)
		}
		if ev.Name != "sim.run" {
			continue
		}
		runs++
		p, ok := byID[ev.Args.Parent]
		if !ok || tr.TraceEvents[p].Name != "traced_round" || ev.Args.Unit == "" {
			t.Errorf("sim.run span %+v is not linked to a traced round", ev)
		} else if parent := tr.TraceEvents[p]; ev.Ts < parent.Ts || ev.Ts+ev.Dur > parent.Ts+parent.Dur+1 {
			t.Errorf("sim.run [%v, %v] lies outside its parent [%v, %v]", ev.Ts, ev.Ts+ev.Dur, parent.Ts, parent.Ts+parent.Dur)
		}
	}
	if runs == 0 {
		t.Error("trace has no sim.run span")
	}
}
