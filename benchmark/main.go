// Command benchmark is the repository's benchmark: six workloads, three
// end-to-end metrics every workload reports, and per-layer metrics gathered
// from outside the program in a separate traced run. README.md in this
// directory defines every workload and metric; BENCHMARK.json at the root of
// the repository is the contract the numbers are judged by.
//
//	bash benchmark/run.sh -workload pipette_1c -seed 1 -seconds 10 -trace 0
//	go run ./benchmark -workload server_closed -trace 1 -trace-out /tmp/t.json
//	go run ./benchmark -aa
//
// It drives product defaults only: sim.New, bench builders, harness.Sweep,
// harness.Run, harness.RunCell and server.New with zero-value strategy
// knobs. It never calls SetWorkers, SetSpeculate, SetPredecode or
// SetFastForward, so an opt-in flag earns nothing here.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
)

// workloads is the benchmark's workload list, in BENCHMARK.json's order.
// The why of each is in BENCHMARK.json and README.md.
var workloads = []string{"pipette_1c", "serial_membound", "multicore", "sweep_cold", "figures_warm", "server_closed"}

func newDriver(opt options) (driver, error) {
	switch opt.workload {
	case "pipette_1c":
		return &simDriver{cells: pipetteCells(opt.smoke), ckptCell: 0, siloKeys: pick(opt.smoke, 20000, 0)}, nil
	case "serial_membound":
		return &simDriver{cells: memboundCells(opt.smoke), ckptCell: -1}, nil
	case "multicore":
		return &simDriver{cells: multicoreCells(opt.smoke), ckptCell: pick(opt.smoke, 2, 0)}, nil
	case "sweep_cold":
		return &sweepDriver{cfg: sweepConfig(opt)}, nil
	case "figures_warm":
		return &figuresDriver{cfg: sweepConfig(opt)}, nil
	case "server_closed":
		return &serverDriver{cfg: sweepConfig(opt), jobs: pick(opt.smoke, 100, 12)}, nil
	}
	return nil, fmt.Errorf("unknown workload %q (have %v)", opt.workload, workloads)
}

func main() {
	var opt options
	var trace int
	flag.StringVar(&opt.workload, "workload", "", "workload to run: one of "+fmt.Sprint(workloads))
	flag.Int64Var(&opt.seed, "seed", 1, "seed every input generator and the job mix derive from")
	flag.Float64Var(&opt.seconds, "seconds", 10, "measuring budget of the timed region, in seconds")
	flag.IntVar(&trace, "trace", 0, "1 = traced run: per-layer metrics, spans, kernel and cycle profiling")
	flag.BoolVar(&opt.smoke, "smoke", false, "tiny sizes and one measured round (what go test runs)")
	traceOut := flag.String("trace-out", "", "write the traced run's spans here as Chrome trace-event JSON")
	out := flag.String("out", "", "write the "+Schema+" document here")
	aa := flag.Bool("aa", false, "run every workload (or -workload) twice and fail if an end-to-end metric moves by more than its bound")
	contract := flag.String("contract", "BENCHMARK.json", "the bounds -aa judges by")
	flag.Parse()
	opt.trace = trace != 0

	// One process, at most four CPUs: sweep jobs, server workers and client
	// connections all equal GOMAXPROCS.
	opt.procs = min(runtime.NumCPU(), 4)
	runtime.GOMAXPROCS(opt.procs)
	// Temp dirs live under the working directory's build area, never in the
	// system temp dir: a benchmark run stays inside its checkout.
	opt.tmpRoot = filepath.Join(".bench_build", "tmp")
	if err := os.MkdirAll(opt.tmpRoot, 0o755); err != nil {
		fatal(err)
	}

	doc := document{Schema: Schema, Provenance: newProvenance(opt.smoke)}
	if *aa {
		rows, docs, err := runAA(opt, *contract)
		if err != nil {
			fatal(err)
		}
		doc.Workloads, doc.AA = docs, rows
		if err := writeDoc(*out, doc); err != nil {
			fatal(err)
		}
		for _, row := range rows {
			if !row.OK {
				os.Exit(1)
			}
		}
		return
	}

	w, err := execute(opt)
	if err != nil {
		fatal(err)
	}
	doc.Workloads = []*workloadDoc{w}
	printWorkload(os.Stdout, w)
	if err := writeDoc(*out, doc); err != nil {
		fatal(err)
	}
	if *traceOut != "" && w.tracer != nil {
		if err := w.tracer.writeChrome(*traceOut); err != nil {
			fatal(err)
		}
	}
	// The last line of standard output is the driver's result line.
	metrics := w.EndToEnd
	if opt.trace {
		metrics = w.PerLayer
	}
	fmt.Println(resultLine(w, metrics))
	os.Exit(exitCode(w))
}

// exitCode is non-zero when any correctness gate failed.
func exitCode(w *workloadDoc) int {
	if w.Operations.Failed > 0 {
		return 1
	}
	return 0
}

// resultLine is the one JSON object the benchmark's driver reads.
func resultLine(w *workloadDoc, metrics []metricValue) string {
	type mv struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	line := struct {
		Correct   bool          `json:"correct"`
		Attempted int           `json:"attempted"`
		Failed    int           `json:"failed"`
		Metrics   map[string]mv `json:"metrics"`
	}{w.Operations.Failed == 0, w.Operations.Attempted, w.Operations.Failed, map[string]mv{}}
	for _, m := range metrics {
		line.Metrics[m.Name] = mv{m.Value, m.Unit}
	}
	data, err := json.Marshal(line)
	if err != nil {
		fatal(err)
	}
	return string(data)
}

func printWorkload(f *os.File, w *workloadDoc) {
	fmt.Fprintf(f, "workload %s  seed %d  %d measured rounds after 1 discarded  operations %d attempted, %d failed\n",
		w.Name, w.Seed, w.Rounds, w.Operations.Attempted, w.Operations.Failed)
	for _, msg := range w.Operations.Failures {
		fmt.Fprintf(f, "  FAILED %s\n", msg)
	}
	for _, u := range w.Units {
		fmt.Fprintf(f, "  unit %-22s %10.4f s  [q1 %.4f, q3 %.4f]  %d cycles\n", u.Name, u.WallS, u.Q1, u.Q3, u.Cycles)
	}
	for _, m := range w.EndToEnd {
		fmt.Fprintf(f, "  %-32s %14.4f %-5s n=%d [q1 %.4f, q3 %.4f]\n", m.Name, m.Value, m.Unit, m.N, m.Q1, m.Q3)
	}
	rest := w.PerLayer // a traced run's per-layer metrics include everything in Detail
	if len(rest) == 0 {
		rest = w.Detail
	}
	for _, m := range rest {
		fmt.Fprintf(f, "  %-32s %14.4f %-5s %s\n", m.Name, m.Value, m.Unit, m.Note)
	}
	if valueOf(w.PerLayer, "model.speedup_over_serial") > 0 {
		fmt.Fprintln(f, "  model.speedup_over_serial is this model's own output: it is unvalidated against hardware")
		fmt.Fprintln(f, "  (build/baselines/paper_reference.json is the model at tiny scale); EXPERIMENTS.md records")
		fmt.Fprintln(f, "  Fig. 9 gmean 1.16x here against 1.9x in the paper.")
	}
}

func writeDoc(path string, doc document) error {
	if path == "" {
		return nil
	}
	data, err := json.MarshalIndent(doc, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "benchmark:", err)
	os.Exit(1)
}
