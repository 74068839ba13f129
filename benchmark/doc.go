package main

import (
	"runtime"
	"runtime/debug"
)

// Schema names the document -out writes: one per invocation.
const Schema = "pipette.benchmark/v1"

// document field order is the JSON key order; testdata/document_keys.golden
// pins it.
type document struct {
	Schema     string         `json:"schema"`
	Provenance provenance     `json:"provenance"`
	Workloads  []*workloadDoc `json:"workloads"`
	AA         []aaRow        `json:"aa,omitempty"`
}

type provenance struct {
	HostCPUs   int    `json:"host_cpus"`
	GoMaxProcs int    `json:"gomaxprocs"` // also sweep jobs, server workers and client connections
	GoVersion  string `json:"go_version"`
	Commit     string `json:"commit"` // "unknown" when the build has no VCS stamp
	Smoke      bool   `json:"smoke"`
}

type workloadDoc struct {
	Name       string        `json:"name"`
	Seed       int64         `json:"seed"`
	Seconds    float64       `json:"seconds"`
	Rounds     int           `json:"rounds"` // measured rounds, after one discarded
	Operations opsDoc        `json:"operations"`
	Units      []unitDoc     `json:"units"`
	EndToEnd   []metricValue `json:"end_to_end"`
	Detail     []metricValue `json:"detail,omitempty"`
	PerLayer   []metricValue `json:"per_layer,omitempty"`

	tracer *tracer            // the traced run's spans, for -trace-out
	layer  map[string]float64 // per-layer values exactly as the driver reported them
}

type opsDoc struct {
	Attempted int      `json:"attempted"`
	Failed    int      `json:"failed"`
	Failures  []string `json:"failures,omitempty"`
}

// unitDoc is one timed unit: median and quartiles of its wall-clock over
// the measured rounds.
type unitDoc struct {
	Name   string  `json:"name"`
	WallS  float64 `json:"wall_s"`
	Q1     float64 `json:"q1"`
	Q3     float64 `json:"q3"`
	Cycles uint64  `json:"cycles,omitempty"`
}

// metricValue is one reported metric. N, Q1 and Q3 describe the samples
// behind an end-to-end value and are absent from per-layer metrics.
type metricValue struct {
	Name  string  `json:"name"`
	Unit  string  `json:"unit"`
	Value float64 `json:"value"`
	N     int     `json:"n,omitempty"`
	Q1    float64 `json:"q1,omitempty"`
	Q3    float64 `json:"q3,omitempty"`
	Note  string  `json:"note,omitempty"`
}

// aaRow is one end-to-end metric of one workload measured twice by -aa.
type aaRow struct {
	Workload string  `json:"workload"`
	Metric   string  `json:"metric"`
	A        float64 `json:"a"`
	B        float64 `json:"b"`
	Worse    float64 `json:"worse_frac"` // how much worse the worse side is, as a share of the better
	Bound    float64 `json:"bound"`
	OK       bool    `json:"ok"`
}

func newProvenance(smoke bool) provenance {
	p := provenance{
		HostCPUs:   runtime.NumCPU(),
		GoMaxProcs: runtime.GOMAXPROCS(0),
		GoVersion:  runtime.Version(),
		Commit:     "unknown",
		Smoke:      smoke,
	}
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			if s.Key == "vcs.revision" {
				p.Commit = s.Value
			}
		}
	}
	return p
}
