package main

import (
	"bytes"
	"encoding/json"
	"math"
	"os"
	"strings"
	"testing"

	"factorgraph"
)

type result struct {
	Correct   bool  `json:"correct"`
	Attempted int64 `json:"attempted"`
	Failed    int64 `json:"failed"`
	Metrics   map[string]struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	} `json:"metrics"`
}

// runSmall runs one workload far below benchmark scale and returns its
// output and parsed result line.
func runSmall(t *testing.T, workload, trace string) (string, result) {
	t.Helper()
	var out bytes.Buffer
	run([]string{"--workload", workload, "--seed", "3", "--seconds", "2", "--scale", "0.02",
		"--trace", trace, "--out", t.TempDir()}, &out)
	lines := strings.Split(strings.TrimSpace(out.String()), "\n")
	var res result
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
		t.Fatalf("%s trace=%s: last line is not the result: %v\n%s", workload, trace, err, out.String())
	}
	return out.String(), res
}

func TestEveryMetricPrintedWithUnit(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every workload")
	}
	for _, workload := range sortedKeys(workloads) {
		for trace, defs := range map[string][]metricDef{"0": endToEnd, "1": perLayer} {
			out, res := runSmall(t, workload, trace)
			if res.Attempted < 1 || res.Failed != 0 {
				t.Errorf("%s trace=%s: attempted %d, failed %d", workload, trace, res.Attempted, res.Failed)
			}
			// label-sparse labels 1 node in 10,000: at test scale that is
			// one node per class, too few for its accuracy checks to mean
			// anything, so only the serving runs must come out correct.
			if !res.Correct && (workload != "label-sparse" || trace == "1") {
				t.Errorf("%s trace=%s: not correct:\n%s", workload, trace, out)
			}
			if len(res.Metrics) != len(defs) {
				t.Errorf("%s trace=%s: %d metrics, want %d", workload, trace, len(res.Metrics), len(defs))
			}
			for _, d := range defs {
				m, ok := res.Metrics[d.name]
				if !ok || m.Unit != d.unit {
					t.Errorf("%s trace=%s: metric %s = %+v, want unit %s", workload, trace, d.name, m, d.unit)
				}
				if !strings.Contains(out, "metric "+d.name+" ") || !strings.Contains(out, " "+d.unit+"\n") {
					t.Errorf("%s trace=%s: metric %s not printed with its unit", workload, trace, d.name)
				}
			}
		}
	}
}

// TestBenchmarkJSONMatches keeps BENCHMARK.json and the code's metric and
// workload lists the same.
func TestBenchmarkJSONMatches(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var b struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &b); err != nil {
		t.Fatal(err)
	}
	if len(b.Workloads) != len(workloads) {
		t.Errorf("BENCHMARK.json has %d workloads, code %d", len(b.Workloads), len(workloads))
	}
	for _, w := range b.Workloads {
		if _, ok := workloads[w.Name]; !ok {
			t.Errorf("workload %s not in code", w.Name)
		}
	}
	for name, pair := range map[string]struct {
		json []struct{ Name, Unit string }
		code []metricDef
	}{"end_to_end": {b.EndToEnd, endToEnd}, "per_layer": {b.PerLayer, perLayer}} {
		if len(pair.json) != len(pair.code) {
			t.Errorf("%s: %d in BENCHMARK.json, %d in code", name, len(pair.json), len(pair.code))
			continue
		}
		for i, m := range pair.json {
			if m.Name != pair.code[i].name || m.Unit != pair.code[i].unit {
				t.Errorf("%s[%d]: BENCHMARK.json %s (%s), code %s (%s)", name, i, m.Name, m.Unit, pair.code[i].name, pair.code[i].unit)
			}
		}
	}
}

func smallGraph(t *testing.T) (*factorgraph.Graph, []int, []int) {
	t.Helper()
	g, truth, err := factorgraph.Generate(factorgraph.GenerateConfig{
		N: 3000, M: 15000, K: 3, H: factorgraph.SkewedH(3, 8), Seed: 7,
	})
	if err != nil {
		t.Fatal(err)
	}
	seeds, err := factorgraph.SampleSeeds(truth, 3, 0.1, 7)
	if err != nil {
		t.Fatal(err)
	}
	return g, truth, seeds
}

func TestCorruptedBeliefFailsReferenceCheck(t *testing.T) {
	g, _, seeds := smallGraph(t)
	h := factorgraph.SkewedH(3, 8)
	f, err := factorgraph.PropagateBeliefs(g, seeds, 3, h)
	if err != nil {
		t.Fatal(err)
	}
	ref := referenceLinBP(g.Adj, seeds, 3, h)
	if d := maxAbsDiff(ref, f); d > refTol {
		t.Fatalf("program beliefs differ from the reference by %g", d)
	}
	f.Data[len(f.Data)/2] += 1e-6
	if d := maxAbsDiff(ref, f); d <= refTol {
		t.Fatalf("a corrupted belief passed the check (difference %g)", d)
	}
	f.Data[0] = math.NaN()
	if d := maxAbsDiff(ref, f); d <= refTol {
		t.Fatal("a NaN belief passed the check")
	}
}

func TestCorruptedServedScoreFailsColdCheck(t *testing.T) {
	g, _, seeds := smallGraph(t)
	eng, err := factorgraph.NewEngineWithH(g, seeds, 3, factorgraph.SkewedH(3, 8), "dcer", factorgraph.EngineOptions{Iterations: coldIterations})
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Close()
	q := factorgraph.Query{Nodes: []int{1, 2, 3}, TopK: 3}
	want, err := eng.Classify(q)
	if err != nil {
		t.Fatal(err)
	}
	got, err := eng.Classify(q)
	if err != nil {
		t.Fatal(err)
	}
	if d := topKDiff(got, want); d != 0 {
		t.Fatalf("identical results differ by %g", d)
	}
	got[1].Top[0].Score += 2 * beliefTol
	if d := topKDiff(got, want); d <= beliefTol {
		t.Fatalf("a corrupted score passed the check (difference %g)", d)
	}
	got[1].Top = got[1].Top[:2]
	if d := topKDiff(got, want); !math.IsInf(d, 1) {
		t.Fatal("a missing class passed the check")
	}
}

func TestWrongAccuracyFailsChecks(t *testing.T) {
	truth := []int{0, 1, 2, 0, 1, 2}
	seeds := []int{0, -1, -1, -1, -1, -1}
	if a := accuracy([]int{0, 1, 2, 0, 1, 2}, truth, seeds); a != 1 {
		t.Fatalf("accuracy of a perfect prediction = %g", a)
	}
	if a := accuracy([]int{0, 1, 2, 1, 2, 0}, truth, seeds); a != 2.0/5 {
		t.Fatalf("accuracy = %g, want 0.4 (the seed node is not scored)", a)
	}
	for _, c := range []struct {
		name             string
		est, paired, gld []float64
		ok               bool
	}{
		{"near gold", []float64{0.40, 0.41}, []float64{0.40}, []float64{0.42}, true},
		{"at chance", []float64{0.33, 0.33}, []float64{0.33}, []float64{0.34}, false},
		{"far below gold", []float64{0.36, 0.36}, []float64{0.34}, []float64{0.42}, false},
	} {
		rep := &report{}
		checkAccuracy(rep, c.est, c.paired, c.gld)
		if rep.correct() != c.ok {
			t.Errorf("%s: correct = %v, want %v: %+v", c.name, rep.correct(), c.ok, rep.checks)
		}
	}
}

func TestWrongResponsesFailVerify(t *testing.T) {
	g, truth, seeds := smallGraph(t)
	in := newServingInput(mutateStreamSpec, g.N, edgeList(g.Adj), truth, seeds)
	gen := newOpGen(in, "ops", 1)
	read := gen.read()
	good, _ := json.Marshal(map[string]any{"count": len(read.nodes), "results": results(read.nodes, 3)})
	if err := read.verify(200, good); err != nil {
		t.Fatalf("a right classify response failed: %v", err)
	}
	bad, _ := json.Marshal(map[string]any{"count": len(read.nodes), "results": results(append([]int{read.nodes[0] + 1}, read.nodes[1:]...), 3)})
	if read.verify(200, bad) == nil {
		t.Error("a classify response for the wrong node passed")
	}
	if read.verify(500, good) == nil {
		t.Error("a 500 passed")
	}
	mut := gen.mutate()
	ok, _ := json.Marshal(map[string]int{"set_edges": mut.nSet, "removed_edges": mut.nRemove})
	if err := mut.verify(200, ok); err != nil {
		t.Fatalf("a right edge response failed: %v", err)
	}
	short, _ := json.Marshal(map[string]int{"set_edges": mut.nSet - 1, "removed_edges": mut.nRemove})
	if mut.verify(200, short) == nil {
		t.Error("an edge response that applied one upsert too few passed")
	}
	gen.spec.mutateBatch = 0
	patch := gen.write()
	resp, _ := json.Marshal(map[string]int{"labeled": patch.labeled + 1})
	if patch.verify(200, resp) == nil {
		t.Error("a patch response with the wrong labeled count passed")
	}
}

func results(nodes []int, k int) []factorgraph.NodeResult {
	out := make([]factorgraph.NodeResult, len(nodes))
	for i, v := range nodes {
		out[i] = factorgraph.NodeResult{Node: v, Top: make([]factorgraph.ClassScore, k)}
	}
	return out
}

func TestSameSeedSameOps(t *testing.T) {
	cfg := config{seed: 5, scale: 0.01}
	a, err := makeServingInput(cfg, mutateStreamSpec)
	if err != nil {
		t.Fatal(err)
	}
	b, err := makeServingInput(cfg, mutateStreamSpec)
	if err != nil {
		t.Fatal(err)
	}
	if a.edgesTSV != b.edgesTSV || a.labelsTSV != b.labelsTSV {
		t.Fatal("the same seed gave different graphs")
	}
	oa, ob := newOpGen(a, "ops", 5).sequence(60, false), newOpGen(b, "ops", 5).sequence(60, false)
	writes := 0
	for i := range oa {
		if !bytes.Equal(oa[i].body, ob[i].body) {
			t.Fatalf("op %d differs between two draws from one seed", i)
		}
		if oa[i].kind != opRead {
			writes++
		}
	}
	if want := 60 / mutateStreamSpec.writeEvery; writes != want {
		t.Fatalf("%d writes in 60 ops, want %d", writes, want)
	}
}

func TestTailQuantile(t *testing.T) {
	for n, want := range map[int]float64{1000: 0.99, 999: 0.95, 200: 0.95, 100: 0.90, 56: 0.75, 39: 0.5} {
		if got := tailQuantile(n); got != want {
			t.Errorf("tailQuantile(%d) = %g, want %g", n, got, want)
		}
	}
	if got := percentile([]float64{3, 1, 2, 4}, 0.5); got != 2.5 {
		t.Errorf("median of 1..4 = %g", got)
	}
	var l latencies
	for _, d := range []float64{1, 2, 3} {
		l.ms = append(l.ms, d)
	}
	l.fail()
	l.fail()
	if got := l.p50(); got != 3 {
		t.Errorf("median of 1, 2, 3 and two failures = %g, want 3", got)
	}
	if got := l.within(2.5); got != 2.0/5 {
		t.Errorf("share within 2.5 ms = %g, want 0.4 (failures miss)", got)
	}
}

func TestSelfTimes(t *testing.T) {
	spans := []span{
		{ID: 1, Name: "op", Start: 0, End: 100},
		{ID: 2, Parent: 1, Name: "a", Start: 10, End: 40},
		{ID: 3, Parent: 2, Name: "b", Start: 15, End: 25},
		{ID: 4, Parent: 1, Name: "paired", Start: 100, End: 150, Paired: true},
		{ID: 5, Parent: 4, Name: "c", Start: 150, End: 170},
		{ID: 6, Parent: 1, Name: "compare", Start: 170, End: 200, Compare: true},
	}
	self, on := selfTimes(spans), onPath(spans)
	wantSelf := []int64{70, 20, 10, 30, 20, 30}
	wantOn := []bool{true, true, true, true, false, false}
	for i := range spans {
		if int64(self[i]) != wantSelf[i] || on[i] != wantOn[i] {
			t.Errorf("span %s: self %d on path %v, want %d %v", spans[i].Name, self[i], on[i], wantSelf[i], wantOn[i])
		}
	}
}
