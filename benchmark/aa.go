package main

import (
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
)

// contractFile is the part of BENCHMARK.json the benchmark itself reads.
type contractFile struct {
	Workloads []struct{ Name, Why string } `json:"workloads"`
	EndToEnd  []struct {
		Name, Unit, Better string
		Bound              float64
	} `json:"end_to_end"`
	PerLayer []struct{ Name, Unit, Better string } `json:"per_layer"`
}

func readContract(path string) (contractFile, error) {
	var c contractFile
	data, err := os.ReadFile(path)
	if err != nil {
		return c, err
	}
	return c, json.Unmarshal(data, &c)
}

// worseFrac is how much worse b is than a, as a share of a, in the metric's
// direction; negative when b is better.
func worseFrac(a, b float64, better string) float64 {
	if a == 0 {
		return 0
	}
	if better == "higher" {
		return (a - b) / a
	}
	return (b - a) / a
}

// runAA measures every selected workload twice with the same binary, seed
// and budget, each run in a process of its own (as every real run is),
// alternating A and B per workload. A later "unchanged" verdict leans on
// this: a metric that cannot repeat within its bound on one binary cannot
// resolve a change of that size between two.
func runAA(opt options, contractPath string) ([]aaRow, []*workloadDoc, error) {
	contract, err := readContract(contractPath)
	if err != nil {
		return nil, nil, fmt.Errorf("-aa needs the bounds in %s: %w", contractPath, err)
	}
	self, err := os.Executable()
	if err != nil {
		return nil, nil, err
	}
	names := workloads
	if opt.workload != "" {
		names = []string{opt.workload}
	}
	var rows []aaRow
	var docs []*workloadDoc
	for _, name := range names {
		var side [2]*workloadDoc
		for i := range side {
			out := filepath.Join(opt.tmpRoot, fmt.Sprintf("aa-%s-%d.json", name, i))
			args := []string{"-workload", name, "-seed", strconv.FormatInt(opt.seed, 10),
				"-seconds", strconv.FormatFloat(opt.seconds, 'g', -1, 64), "-out", out}
			if opt.smoke {
				args = append(args, "-smoke")
			}
			cmd := exec.Command(self, args...)
			cmd.Stderr = os.Stderr
			if err := cmd.Run(); err != nil {
				return nil, nil, fmt.Errorf("%s run %c: %w", name, 'A'+i, err)
			}
			data, err := os.ReadFile(out)
			os.Remove(out)
			var d document
			if err == nil {
				err = json.Unmarshal(data, &d)
			}
			if err != nil || len(d.Workloads) != 1 {
				return nil, nil, fmt.Errorf("%s run %c: unreadable document: %v", name, 'A'+i, err)
			}
			side[i] = d.Workloads[0]
			docs = append(docs, side[i])
		}
		for _, m := range contract.EndToEnd {
			a, b := valueOf(side[0].EndToEnd, m.Name), valueOf(side[1].EndToEnd, m.Name)
			worse := max(worseFrac(a, b, m.Better), worseFrac(b, a, m.Better))
			row := aaRow{Workload: name, Metric: m.Name, A: a, B: b, Worse: worse, Bound: m.Bound, OK: a > 0 && b > 0 && worse <= m.Bound}
			rows = append(rows, row)
			verdict := "ok"
			if !row.OK {
				verdict = "FAIL"
			}
			fmt.Printf("%-16s %-18s A %12.4f  B %12.4f  worse by %5.1f%%  bound %4.0f%%  %s\n",
				name, m.Name, a, b, 100*worse, 100*m.Bound, verdict)
		}
	}
	return rows, docs, nil
}

func valueOf(ms []metricValue, name string) float64 {
	for _, m := range ms {
		if m.Name == name {
			return m.Value
		}
	}
	return 0
}
