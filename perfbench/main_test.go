package main

import (
	"bytes"
	"encoding/json"
	"io"
	"os"
	"strings"
	"testing"
	"time"

	"berkmin"
	"berkmin/internal/bench"
	"berkmin/internal/cnf"
	"berkmin/internal/gen"
)

// lastLine parses the result line a run printed.
func lastLine(t *testing.T, out string) result {
	t.Helper()
	lines := strings.Split(strings.TrimSpace(out), "\n")
	var res result
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
		t.Fatalf("last line is not a result: %v\n%s", err, out)
	}
	return res
}

func TestMetricTablesMatchBenchmarkJSON(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	type entry struct{ Name, Unit string }
	var spec struct {
		Workloads []struct{ Name string }
		EndToEnd  []entry `json:"end_to_end"`
		PerLayer  []entry `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &spec); err != nil {
		t.Fatal(err)
	}
	same := func(table string, got []entry, want []metricDef) {
		if len(got) != len(want) {
			t.Errorf("%s: BENCHMARK.json lists %d metrics, the benchmark %d", table, len(got), len(want))
			return
		}
		for i, d := range want {
			if got[i].Name != d.name || got[i].Unit != d.unit {
				t.Errorf("%s[%d]: BENCHMARK.json has %s (%s), the benchmark %s (%s)", table, i, got[i].Name, got[i].Unit, d.name, d.unit)
			}
		}
	}
	same("end_to_end", spec.EndToEnd, endToEnd)
	same("per_layer", spec.PerLayer, perLayer)
	for _, w := range spec.Workloads {
		if workloads[w.Name] == nil {
			t.Errorf("BENCHMARK.json names workload %s, which the benchmark does not have", w.Name)
		}
	}
}

// TestWorkloadsPrintEveryMetric runs each workload at small scale,
// untraced and traced, and checks that the result names every metric of
// its table with its unit, and that the environment is recorded.
func TestWorkloadsPrintEveryMetric(t *testing.T) {
	for _, w := range []string{"hardset", "querystream", "served"} {
		for _, trace := range []string{"0", "1"} {
			t.Run(w+"/trace="+trace, func(t *testing.T) {
				var stdout, stderr bytes.Buffer
				cfg := config{workload: w, seed: 5, seconds: 200 * time.Millisecond, trace: trace == "1", scale: bench.Small}
				code := execute(cfg, &stdout, &stderr)
				if code != 0 {
					t.Fatalf("exit %d\n%s\n%s", code, stdout.String(), stderr.String())
				}
				for _, key := range []string{`"nproc"`, `"gomaxprocs"`, `"go"`, `"seed":5`, `"served_rate_qps"`, `"served_limit_ms"`} {
					if !strings.Contains(stdout.String(), key) {
						t.Errorf("environment line lacks %s", key)
					}
				}
				res := lastLine(t, stdout.String())
				if !res.Correct || res.Failed != 0 || res.Attempted == 0 {
					t.Errorf("result %+v", res)
				}
				defs := endToEnd
				if trace == "1" {
					defs = perLayer
				}
				if len(res.Metrics) != len(defs) {
					t.Errorf("%d metrics printed, want %d", len(res.Metrics), len(defs))
				}
				for _, d := range defs {
					m, ok := res.Metrics[d.name]
					if !ok || m.Unit != d.unit {
						t.Errorf("metric %s: got %+v, want unit %s", d.name, m, d.unit)
					}
					if trace == "0" && m.Value <= 0 {
						t.Errorf("end-to-end metric %s is %v", d.name, m.Value)
					}
				}
			})
		}
	}
}

func TestCheckerRejectsWrongAnswers(t *testing.T) {
	f := cnf.New(2).AddClause(1, 2).AddClause(-1)
	good := []bool{false, false, true}
	if err := checkAnswer("f", f, [][]int{{2}}, berkmin.StatusSat, berkmin.StatusSat, good); err != nil {
		t.Fatalf("a right answer was rejected: %v", err)
	}
	if checkAnswer("f", f, nil, berkmin.StatusUnsat, berkmin.StatusSat, nil) == nil {
		t.Error("a wrong verdict was accepted")
	}
	if checkAnswer("f", f, nil, berkmin.StatusSat, berkmin.StatusSat, []bool{false, true, true}) == nil {
		t.Error("a model falsifying the formula was accepted")
	}
	if checkModel("f", f, [][]int{{-2}}, good) == nil {
		t.Error("a model falsifying an assumption was accepted")
	}
	if checkModel("f", f, nil, []bool{false, false}) == nil {
		t.Error("a model too short for the formula was accepted")
	}
}

// finishRun checks that a run whose answers did not check out prints a
// failed result and exits non-zero.
func finishRun(t *testing.T, r *run) {
	t.Helper()
	if r.tally.failed == 0 {
		t.Fatal("no operation failed")
	}
	var stdout bytes.Buffer
	if code := r.finish(&stdout, io.Discard); code != 1 {
		t.Errorf("exit %d, want 1", code)
	}
	if res := lastLine(t, stdout.String()); res.Correct || res.Failed != r.tally.failed {
		t.Errorf("result %+v", res)
	}
}

func smallRun(workload string) *run {
	return &run{
		cfg:     config{workload: workload, seed: 1, seconds: 1, scale: bench.Small},
		out:     io.Discard,
		metrics: map[string]float64{"setup_s": 1},
	}
}

// TestWrongVerdictFailsHardset gives the hard set a wrong expected status.
func TestWrongVerdictFailsHardset(t *testing.T) {
	set, err := hardInputs(bench.Small)
	if err != nil {
		t.Fatal(err)
	}
	for i := range set {
		if set[i].inst.Expected == gen.ExpSat {
			set[i].inst.Expected = gen.ExpUnsat
			break
		}
	}
	r := smallRun("hardset")
	if err := hardset(r, set); err != nil {
		t.Fatal(err)
	}
	finishRun(t, r)
}

// TestWrongVerdictFailsQueryStream flips one reference verdict, as if the
// pooled solver had answered it wrongly.
func TestWrongVerdictFailsQueryStream(t *testing.T) {
	r := smallRun("querystream")
	in, err := newStreamInputs(r)
	if err != nil {
		t.Fatal(err)
	}
	if in.want, err = referenceVerdicts(in.inst.Formula, in.queries); err != nil {
		t.Fatal(err)
	}
	if in.want[0] == berkmin.StatusSat {
		in.want[0] = berkmin.StatusUnsat
	} else {
		in.want[0] = berkmin.StatusSat
	}
	pool, err := newPool(in.text)
	if err != nil {
		t.Fatal(err)
	}
	if err := queryStream(r, in, pool); err != nil {
		t.Fatal(err)
	}
	finishRun(t, r)
}

func TestBadArgumentsPrintNoResult(t *testing.T) {
	for _, args := range [][]string{
		{"--workload", "nosuch", "--seconds", "1"},
		{"--workload", "hardset", "--seconds", "0"},
		{"--workload", "hardset", "--trace", "2"},
		{"--workload", "hardset", "--scale", "small"},
	} {
		var stdout bytes.Buffer
		if code := realMain(args, &stdout, io.Discard); code != 2 || stdout.Len() != 0 {
			t.Errorf("%v: exit %d, output %q", args, code, stdout.String())
		}
	}
}
