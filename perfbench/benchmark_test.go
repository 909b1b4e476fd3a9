package main

import (
	"encoding/json"
	"os"
	"regexp"
	"sort"
	"strings"
	"testing"
)

// benchmarkFile mirrors BENCHMARK.json at the repository root.
type benchmarkFile struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	} `json:"per_layer"`
}

// TestBenchmarkJSONMatchesProgram keeps BENCHMARK.json and the metric
// tables the program prints in step.
func TestBenchmarkJSONMatchesProgram(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var b benchmarkFile
	dec := json.NewDecoder(strings.NewReader(string(raw)))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&b); err != nil {
		t.Fatal(err)
	}
	name := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unit := regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
	seen := map[string]bool{}
	checkName := func(n string) {
		if !name.MatchString(n) || seen[n] {
			t.Errorf("name %q is malformed or used twice", n)
		}
		seen[n] = true
	}

	var wl []string
	for _, w := range b.Workloads {
		checkName(w.Name)
		wl = append(wl, w.Name)
		if w.Why == "" || len(w.Why) > 200 || strings.Contains(w.Why, "\n") {
			t.Errorf("workload %s: why must be one line of at most 200 characters", w.Name)
		}
	}
	var prog []string
	for n := range workloads {
		prog = append(prog, n)
	}
	sort.Strings(wl)
	sort.Strings(prog)
	if strings.Join(wl, ",") != strings.Join(prog, ",") {
		t.Errorf("workloads %v, program runs %v", wl, prog)
	}

	if len(b.EndToEnd) != len(endToEnd) {
		t.Fatalf("%d end-to-end metrics, program reports %d", len(b.EndToEnd), len(endToEnd))
	}
	hasSetup := false
	for i, m := range b.EndToEnd {
		checkName(m.Name)
		if m.Name != endToEnd[i].Name || m.Unit != endToEnd[i].Unit || !unit.MatchString(m.Unit) {
			t.Errorf("end_to_end[%d] = %s %s, program reports %v", i, m.Name, m.Unit, endToEnd[i])
		}
		if m.Better != "lower" && m.Better != "higher" || m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("end_to_end %s: better %q bound %v", m.Name, m.Better, m.Bound)
		}
		if m.Name == "setup_s" {
			hasSetup = m.Unit == "s" && m.Better == "lower"
			for _, o := range b.EndToEnd {
				if o.Bound > m.Bound {
					t.Errorf("setup_s must have the largest bound; %s has %v", o.Name, o.Bound)
				}
			}
		}
	}
	if !hasSetup {
		t.Error("end_to_end needs setup_s in s, lower is better")
	}
	if len(b.PerLayer) != len(perLayer) {
		t.Fatalf("%d per-layer metrics, program reports %d", len(b.PerLayer), len(perLayer))
	}
	for i, m := range b.PerLayer {
		checkName(m.Name)
		if m.Name != perLayer[i].Name || m.Unit != perLayer[i].Unit || !unit.MatchString(m.Unit) {
			t.Errorf("per_layer[%d] = %s %s, program reports %v", i, m.Name, m.Unit, perLayer[i])
		}
		if m.Better != "lower" && m.Better != "higher" {
			t.Errorf("per_layer %s: better %q", m.Name, m.Better)
		}
	}
	if b.RunSeconds < 1 || b.RunSeconds > 60 || len(b.Paths) != 1 || b.Paths[0] != "perfbench" {
		t.Errorf("run_seconds %d, paths %v", b.RunSeconds, b.Paths)
	}
	if len(b.Command) == 0 || b.Command[len(b.Command)-1] != "perfbench/run.sh" {
		t.Errorf("command %v", b.Command)
	}
}
