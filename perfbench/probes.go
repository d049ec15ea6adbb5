package main

import (
	"fmt"
	"io"
	"time"

	"factorgraph"
	"factorgraph/internal/core"
	"factorgraph/internal/delta"
	"factorgraph/internal/dense"
	"factorgraph/internal/exec"
	"factorgraph/internal/graph"
	"factorgraph/internal/labels"
	"factorgraph/internal/propagation"
	"factorgraph/internal/sparse"
)

// probeInput is what the layer probes run on: the workload's own graph
// (the unordered matrix the engine serves), k, labels and H, and the edge
// mutations replayed into a standalone delta overlay.
type probeInput struct {
	n                   int
	edges               [][2]int32
	w                   *sparse.CSR
	k                   int
	seeds               []int
	h                   *dense.Matrix
	muts                []factorgraph.EdgeMutation
	edgesTSV, labelsTSV []byte
}

// probe times reps calls of fn, each under its own span, and returns the
// median duration.
func probe(tr *tracer, name string, reps int, fn func() error) (time.Duration, error) {
	var ds []float64
	for range reps {
		id := tr.open(name, 0, -1)
		err := fn()
		ds = append(ds, float64(tr.close(id)))
		if err != nil {
			return 0, fmt.Errorf("%s: %w", name, err)
		}
	}
	return time.Duration(median(ds)), nil
}

// libraryProbes times each library layer's public entry point on the
// workload's inputs. Every per-nnz or per-edge figure names its base.
func libraryProbes(rep *report, tr *tracer, in probeInput, log io.Writer) error {
	w, k, n := in.w, in.k, in.n
	nnz := w.NNZ()
	fmt.Fprintf(log, "probes: n=%d nnz=%d k=%d (unordered CSR, as served)\n", n, nnz, k)

	d, err := probe(tr, "graph.New", 3, func() error { _, err := factorgraph.NewGraph(n, in.edges); return err })
	if err != nil {
		return err
	}
	rep.set("graph.build_s", d.Seconds())
	d, err = probe(tr, "graph.ParseUpload", 3, func() error { _, _, _, err := graph.ParseUpload(in.edgesTSV, in.labelsTSV); return err })
	if err != nil {
		return err
	}
	rep.set("graph.parse_s", d.Seconds())
	fmt.Fprintf(log, "graph: build from %d edges, parse %d bytes of TSV\n", len(in.edges), len(in.edgesTSV)+len(in.labelsTSV))

	d, _ = probe(tr, "sparse.SpectralRadius", 3, func() error { w.SpectralRadius(50); return nil })
	rep.set("sparse.spectral_s", d.Seconds())

	x := dense.New(n, k)
	for i := range x.Data {
		x.Data[i] = float64(i%7) - 3
	}
	out := dense.New(n, k)
	d, _ = probe(tr, "sparse.MulDenseInto", 7, func() error { w.MulDenseInto(out, x); return nil })
	rep.set("sparse.spmm_ns_per_nnz", float64(d)/float64(nnz))
	fmt.Fprintf(log, "sparse: MulDenseInto %v over %d nnz × %d columns\n", d, nnz, k)

	hs := dense.Scale(dense.AddScalar(in.h, -1/float64(k)), 0.1)
	fh, wfh := dense.New(n, k), dense.New(n, k)
	d, _ = probe(tr, "exec.DenseRound", 7, func() error {
		exec.Runner{}.DenseRound(w, x, hs, fh, wfh, func(int, int, int) {})
		return nil
	})
	rep.set("exec.dense_round_ns_per_nnz", float64(d)/float64(nnz))
	fmt.Fprintf(log, "exec: DenseRound %v over %d nnz\n", d, nnz)
	d, _ = probe(tr, "exec.Tune", 3, func() error { exec.Tune(w, k, exec.Runner{}, 0); return nil })
	rep.set("exec.tune_ms", ms(d))

	xs, err := labels.Matrix(in.seeds, k)
	if err != nil {
		return err
	}
	w.SpectralRadiusCached(50) // ρ(W) is set-up work, timed above
	d, err = probe(tr, "propagation.LinBP", 3, func() error {
		_, err := propagation.LinBP(w, xs, in.h, propagation.DefaultLinBPOptions())
		return err
	})
	if err != nil {
		return err
	}
	rep.set("propagation.linbp_s", d.Seconds())

	var sums *core.Summaries
	d, err = probe(tr, "core.Summarize", 3, func() error {
		sums, err = core.Summarize(w, in.seeds, k, core.DefaultSummaryOptions())
		return err
	})
	if err != nil {
		return err
	}
	rep.set("core.summarize_s", d.Seconds())
	d, err = probe(tr, "core.EstimateDCE", 3, func() error { _, err := core.EstimateDCE(sums, core.DefaultDCErOptions()); return err })
	if err != nil {
		return err
	}
	rep.set("core.dce_optimize_s", d.Seconds())

	return deltaProbes(rep, tr, in, x, log)
}

// deltaProbes measures the overlay on an empty delta.Graph over the
// workload's matrix, then replays the mutations into it.
func deltaProbes(rep *report, tr *tracer, in probeInput, x *dense.Matrix, log io.Writer) error {
	dg := delta.New(in.w)
	out := dense.New(in.n, in.k)
	d, _ := probe(tr, "delta.MulDenseInto", 7, func() error { dg.MulDenseInto(out, x); return nil })
	rep.set("delta.spmm_ns_per_nnz", float64(d)/float64(dg.NNZ()))
	d, _ = probe(tr, "delta.Row", 3, func() error {
		for u := range dg.Dim() {
			dg.Row(u)
		}
		return nil
	})
	rep.set("delta.row_ns", float64(d)/float64(dg.Dim()))
	fmt.Fprintf(log, "delta (empty overlay): MulDenseInto over %d nnz, Row over %d rows\n", dg.NNZ(), dg.Dim())

	id := tr.open("delta.SetEdge", 0, -1)
	removed := 0
	for _, m := range in.muts {
		if m.Remove {
			if _, ok := dg.RemoveEdge(m.U, m.V); ok {
				removed++
			}
			continue
		}
		wt := m.W
		if wt == 0 {
			wt = 1
		}
		dg.SetEdge(m.U, m.V, wt)
	}
	d = tr.close(id)
	rep.set("delta.set_edge_ns", float64(d)/float64(max(1, len(in.muts))))
	d, _ = probe(tr, "delta.MulDenseInto.dirty", 7, func() error { dg.MulDenseInto(out, x); return nil })
	rep.set("delta.spmm_dirty_ns_per_nnz", float64(d)/float64(dg.NNZ()))
	d, _ = probe(tr, "delta.Compact", 1, func() error { dg.Compact(); return nil })
	rep.set("delta.compact_ms", ms(d))
	fmt.Fprintf(log, "delta (replayed): %d edge ops (%d removals), %.1f%% of %d stored entries patched\n",
		len(in.muts), removed, 100*dg.PatchedFraction(), dg.NNZ())
	return nil
}

// firstSolve builds an incremental engine on the workload's graph and
// times its first Classify, which pays the full solve.
func firstSolve(rep *report, tr *tracer, g *factorgraph.Graph, seeds []int, k int, nodes []int) (*factorgraph.Engine, error) {
	id := tr.open("engine.NewEngine", 0, -1)
	eng, err := factorgraph.NewEngine(g, seeds, k, factorgraph.EngineOptions{Incremental: true})
	tr.close(id)
	if err != nil {
		return nil, err
	}
	d, err := probe(tr, "engine.Classify.first", 1, func() error {
		_, err := eng.Classify(factorgraph.Query{Nodes: nodes, TopK: k})
		return err
	})
	if err != nil {
		eng.Close()
		return nil, err
	}
	rep.set("engine.first_solve_s", d.Seconds())
	return eng, nil
}

// mutationsOf flattens the edge batches of ops.
func mutationsOf(ops []op) []factorgraph.EdgeMutation {
	var out []factorgraph.EdgeMutation
	for _, o := range ops {
		out = append(out, o.muts...)
	}
	return out
}
