package main

import (
	"fmt"
	"math"
	"net/http"
	"time"

	"factorgraph"
	"factorgraph/internal/core"
	"factorgraph/internal/labels"
	"factorgraph/internal/propagation"
)

// The traced run is a separate invocation: it replays the workload's
// seeded op sequence with one client, once untraced and once with a span
// around every layer call, then probes each layer on the workload's graph.
// Its numbers never mix with the end-to-end run's.

// probeWrites is how many writes of a class the workload itself lacks are
// sent to measure that class's layers; probeReads likewise for reads.
const (
	probeWrites = 16
	probeReads  = 200
	// lsTracePasses caps the label-sparse replay: every pass is the same
	// op class, so a short replay gives steady medians.
	lsTracePasses = 12
	// replayBatches is the edge batches replayed into the delta probe for
	// a workload that sends none: mutate-stream's count at 20 s.
	replayBatches = 200
)

func tracePatchRead(cfg config) (*report, error)    { return traceServing(cfg, patchReadSpec) }
func traceMutateStream(cfg config) (*report, error) { return traceServing(cfg, mutateStreamSpec) }

func traceServing(cfg config, spec servingSpec) (*report, error) {
	rep := &report{}
	in, err := makeServingInput(cfg, spec)
	if err != nil {
		return nil, err
	}
	h, err := startHarness()
	if err != nil {
		return nil, err
	}
	defer h.close()
	gen := newOpGen(in, "ops", cfg.seed)
	first := gen.read()
	ops := gen.sequence(max(1, int(math.Round(spec.rate*cfg.seconds))), false)

	// Untraced replay, on its own registration of the graph.
	if _, err := h.register(in, "untraced", first.body); err != nil {
		return nil, err
	}
	r0, err := newReplayer(h, "untraced", nil)
	if err != nil {
		return nil, err
	}
	c0, err := h.counters()
	if err != nil {
		return nil, err
	}
	s0 := r0.eng.Stats()
	reads0, writes0, err := r0.untraced(ops)
	if err != nil {
		return nil, fmt.Errorf("untraced replay: %w", err)
	}
	r0.eng.WaitCompaction()
	s1 := r0.eng.Stats()
	c1, err := h.counters()
	if err != nil {
		return nil, err
	}
	rep.set("engine.epoch_swaps", float64(s1.TopoAsyncCompactions-s0.TopoAsyncCompactions))
	rep.set("core.sketch_updates", float64(s1.SketchUpdates-s0.SketchUpdates))
	printCounterDeltas(cfg.log, "untraced replay", c0, c1)
	fmt.Fprintf(cfg.log, "untraced replay: %d compactions (%d by epoch swap), %d full propagations\n",
		s1.TopoCompactions-s0.TopoCompactions, s1.TopoAsyncCompactions-s0.TopoAsyncCompactions, s1.Propagations-s0.Propagations)
	if _, err := h.doOK(http.MethodDelete, "/v1/graphs/untraced", nil); err != nil {
		return nil, err
	}

	// Traced replay of the same sequence on a fresh registration.
	tr := newTracer()
	if _, err := h.register(in, "traced", first.body); err != nil {
		return nil, err
	}
	r, err := newReplayer(h, "traced", tr)
	if err != nil {
		return nil, err
	}
	reads1, writes1, err := r.traced(ops, 0)
	if err != nil {
		return nil, fmt.Errorf("traced replay: %w", err)
	}
	// The write class this workload lacks, probed on its own state.
	gen.spec.writeEvery = 1
	if spec.mutateBatch > 0 {
		gen.spec.mutateBatch = 0
	} else {
		gen.spec.mutateBatch = mutateStreamSpec.mutateBatch
	}
	if _, _, err := r.traced(gen.sequence(probeWrites, false), len(ops)); err != nil {
		return nil, fmt.Errorf("write probe: %w", err)
	}
	r.st.setEngineLayers(rep, cfg.log)
	rep.attempted = int64(2*len(ops) + probeWrites)
	rep.check("replays_match_requests", true, "%d ops replayed twice, %d probe writes, every response as sent", len(ops), probeWrites)

	writeRoot := "op.patch"
	if spec.mutateBatch > 0 {
		writeRoot = "op.mutate"
	}
	fmt.Fprintf(cfg.log, "\nblocking path, traced medians against the untraced median:\n")
	breakdown(cfg.log, tr.spans, "op.read", reads0.p50())
	breakdown(cfg.log, tr.spans, writeRoot, writes0.p50())
	fmt.Fprintf(cfg.log, "tracing overhead: read p50 %.4f ms traced vs %.4f ms untraced; write p50 %.3f ms traced (in-process) vs %.3f ms untraced (loopback)\n",
		reads1.p50(), reads0.p50(), writes1.p50(), writes0.p50())
	rep.set("trace.overhead_ratio", reads1.p50()/reads0.p50())

	g, err := factorgraph.NewGraph(in.n, in.edges)
	if err != nil {
		return nil, err
	}
	muts := mutationsOf(ops)
	if spec.mutateBatch == 0 {
		muts = replayMutations(in, cfg.seed)
	}
	err = libraryProbes(rep, tr, probeInput{
		n: in.n, edges: in.edges, w: g.Adj, k: spec.k, seeds: in.seeds, h: r.eng.Estimate().H,
		muts: muts, edgesTSV: []byte(in.edgesTSV), labelsTSV: []byte(in.labelsTSV),
	}, cfg.log)
	if err != nil {
		return nil, err
	}
	// A fresh graph, so the engine pays ρ(W) as a new registration does.
	g, err = factorgraph.NewGraph(in.n, in.edges)
	if err != nil {
		return nil, err
	}
	eng, err := firstSolve(rep, tr, g, in.seeds, spec.k, first.nodes)
	if err != nil {
		return nil, err
	}
	eng.Close()
	return rep, finishTrace(cfg, tr)
}

// replayMutations draws, for a workload without edge writes, the
// mutations mutate-stream would send on this graph, for the delta probes.
func replayMutations(in *servingInput, seed uint64) []factorgraph.EdgeMutation {
	spec := mutateStreamSpec
	spec.writeEvery = 1
	gen := newOpGen(&servingInput{spec: spec, n: in.n, truth: in.truth, seeds: in.seeds, edges: in.edges}, "delta", seed)
	return mutationsOf(gen.sequence(replayBatches, false))
}

func traceLabelSparse(cfg config) (*report, error) {
	rep := &report{}
	n, edges, truth, err := labelSparseGraph(cfg)
	if err != nil {
		return nil, err
	}
	warm, err := passSeeds(cfg, truth, -1)
	if err != nil {
		return nil, err
	}
	g, _, err := labelSparseSetup(n, edges, warm)
	if err != nil {
		return nil, err
	}
	passes := min(lsTracePasses, max(1, int(math.Round(lsPassRate*cfg.seconds))))
	var untraced, traced latencies
	var seeds0 []int
	var h0 *factorgraph.Matrix
	for i := range passes {
		seeds, err := passSeeds(cfg, truth, i)
		if err != nil {
			return nil, err
		}
		p, err := runPass(g, seeds)
		if err != nil {
			return nil, err
		}
		untraced.add(p.estimate + p.propag)
		if i == 0 {
			seeds0, h0 = seeds, p.est.H
		}
	}
	tr := newTracer()
	for i := range passes {
		seeds, err := passSeeds(cfg, truth, i)
		if err != nil {
			return nil, err
		}
		d, err := tracedPass(tr, g, seeds, i)
		if err != nil {
			return nil, err
		}
		traced.add(d)
	}
	fmt.Fprintf(cfg.log, "\nblocking path, traced medians against the untraced median:\n")
	breakdown(cfg.log, tr.spans, "op.label", untraced.p50())
	fmt.Fprintf(cfg.log, "tracing overhead: pass p50 %.2f ms traced vs %.2f ms untraced\n", traced.p50(), untraced.p50())
	rep.set("trace.overhead_ratio", traced.p50()/untraced.p50())
	rep.attempted = int64(2 * passes)

	// The serving layers, which this workload bypasses, probed on an
	// incremental engine over its graph.
	h, err := startHarness()
	if err != nil {
		return nil, err
	}
	defer h.close()
	in := newServingInput(mutateStreamSpec, n, edges, truth, seeds0)
	gen := newOpGen(in, "probe-ops", cfg.seed)
	first := gen.read()
	g2, err := factorgraph.NewGraph(n, edges)
	if err != nil {
		return nil, err
	}
	eng, err := firstSolve(rep, tr, g2, seeds0, lsK, first.nodes)
	if err != nil {
		return nil, err
	}
	if err := h.srv.Registry().RegisterEngine(cfg.workload, eng); err != nil {
		return nil, err
	}
	r, err := newReplayer(h, cfg.workload, tr)
	if err != nil {
		return nil, err
	}
	s0 := eng.Stats()
	base := passes
	for _, mix := range []struct{ count, batch, writeEvery int }{
		{probeReads, 0, 0}, {probeWrites / 2, 0, 1}, {probeWrites / 2, mutateStreamSpec.mutateBatch, 1},
	} {
		gen.spec.mutateBatch, gen.spec.writeEvery = mix.batch, mix.writeEvery
		ops := gen.sequence(mix.count, false)
		if _, _, err := r.traced(ops, base); err != nil {
			return nil, fmt.Errorf("serving probe: %w", err)
		}
		base += len(ops)
	}
	s1 := eng.Stats()
	rep.set("engine.epoch_swaps", float64(s1.TopoAsyncCompactions-s0.TopoAsyncCompactions))
	rep.set("core.sketch_updates", float64(s1.SketchUpdates-s0.SketchUpdates))
	r.st.setEngineLayers(rep, cfg.log)
	rep.attempted += int64(probeReads + probeWrites)
	rep.check("probes_match_requests", true, "%d passes replayed twice, %d probe ops, every response as sent", passes, probeReads+probeWrites)

	err = libraryProbes(rep, tr, probeInput{
		n: n, edges: edges, w: g.Adj, k: lsK, seeds: seeds0, h: h0,
		muts: replayMutations(in, cfg.seed), edgesTSV: []byte(in.edgesTSV), labelsTSV: []byte(in.labelsTSV),
	}, cfg.log)
	if err != nil {
		return nil, err
	}
	return rep, finishTrace(cfg, tr)
}

// tracedPass is runPass through the layers the facade calls, each under a
// span: the sketch summaries, the DCEr optimization and LinBP.
func tracedPass(tr *tracer, g *factorgraph.Graph, seeds []int, op int) (time.Duration, error) {
	root := tr.open("op.label", 0, op)
	id := tr.open("core.Summarize", root, op)
	sums, err := core.Summarize(g.Adj, seeds, lsK, core.DefaultSummaryOptions())
	tr.close(id)
	if err != nil {
		return 0, err
	}
	id = tr.open("core.EstimateDCE", root, op)
	hm, err := core.EstimateDCE(sums, core.DefaultDCErOptions())
	tr.close(id)
	if err != nil {
		return 0, err
	}
	x, err := labels.Matrix(seeds, lsK)
	if err != nil {
		return 0, err
	}
	id = tr.open("propagation.LinBP", root, op)
	_, err = propagation.LinBP(g.Adj, x, hm, propagation.DefaultLinBPOptions())
	tr.close(id)
	return tr.close(root), err
}
