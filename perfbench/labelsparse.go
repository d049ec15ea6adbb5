package main

import (
	"fmt"
	"math"
	"time"

	"factorgraph"
	"factorgraph/internal/dense"
	"factorgraph/internal/sparse"
)

// label-sparse: the paper's one-shot pipeline through the library API — a
// DCEr estimate of H from 1 labeled node in 10,000, then LinBP over every
// node. Sizes are at scale 1.
const (
	lsNodes     = 200_000
	lsEdges     = 2_500_000 // average degree 25, the paper's default
	lsK         = 3
	lsSkew      = 3.0
	lsLabelFrac = 1e-4
	// lsSetups set-ups (NewGraph plus one warm-up pass) run per
	// invocation; setup_s is their median.
	lsSetups = 3
	// lsPassRate is passes per second of --seconds; a pass takes ~0.35 s
	// on two cores, so the loop is busy for about the measured phase.
	lsPassRate = 2.8
	// Every lsGoldEvery-th pass is also propagated with the gold-standard
	// H measured from the planted labels.
	lsGoldEvery = 2
	// lsGoldTol is how far the median accuracy with the estimated H may
	// trail the median accuracy with the gold-standard H. With 20 labeled
	// nodes the estimate is noisy: single samples trail by 0.00–0.07 and
	// the median gap over a run is 0.015–0.045 when this was written.
	lsGoldTol = 0.06
	// A pass's estimate should answer within lsWriteLimitMs and its
	// propagation within lsReadLimitMs: about twice their medians on two
	// cores.
	lsWriteLimitMs = 250
	lsReadLimitMs  = 500
	// refTol bounds the largest belief difference against the reference
	// LinBP iteration computed in this package.
	refTol = 1e-9
)

// labelSparseGraph plants the workload's graph and returns its edge list
// (each undirected edge once) and the planted classes.
func labelSparseGraph(cfg config) (n int, edges [][2]int32, truth []int, err error) {
	n = scaled(lsNodes, cfg.scale)
	g, truth, err := factorgraph.Generate(factorgraph.GenerateConfig{
		N: n, M: scaled(lsEdges, cfg.scale), K: lsK,
		H: factorgraph.SkewedH(lsK, lsSkew), PowerLaw: true, Seed: cfg.seed,
	})
	if err != nil {
		return 0, nil, nil, fmt.Errorf("generating graph: %w", err)
	}
	return n, edgeList(g.Adj), truth, nil
}

// passSeeds draws pass i's stratified label sample.
func passSeeds(cfg config, truth []int, i int) ([]int, error) {
	return factorgraph.SampleSeeds(truth, lsK, lsLabelFrac, streamSeed(cfg.seed, "label-sparse/pass", uint64(i)))
}

// labelPass is one estimate-then-propagate pass.
type labelPass struct {
	est              *factorgraph.Estimate
	beliefs          *factorgraph.Matrix
	estimate, propag time.Duration
}

func runPass(g *factorgraph.Graph, seeds []int) (labelPass, error) {
	t0 := time.Now()
	est, err := factorgraph.EstimateDCEr(g, seeds, lsK)
	if err != nil {
		return labelPass{}, fmt.Errorf("EstimateDCEr: %w", err)
	}
	t1 := time.Now()
	f, err := factorgraph.PropagateBeliefs(g, seeds, lsK, est.H)
	if err != nil {
		return labelPass{}, fmt.Errorf("PropagateBeliefs: %w", err)
	}
	return labelPass{est: est, beliefs: f, estimate: t1.Sub(t0), propag: time.Since(t1)}, nil
}

// labelSparseSetup builds the graph and runs the warm-up pass, which pays
// ρ(W) and starts the worker pool.
func labelSparseSetup(n int, edges [][2]int32, warmSeeds []int) (*factorgraph.Graph, time.Duration, error) {
	t0 := time.Now()
	g, err := factorgraph.NewGraph(n, edges)
	if err != nil {
		return nil, 0, fmt.Errorf("NewGraph: %w", err)
	}
	if _, err := runPass(g, warmSeeds); err != nil {
		return nil, 0, fmt.Errorf("warm-up pass: %w", err)
	}
	return g, time.Since(t0), nil
}

func runLabelSparse(cfg config) (*report, error) {
	rep := &report{}
	n, edges, truth, err := labelSparseGraph(cfg)
	if err != nil {
		return nil, err
	}
	warmSeeds, err := passSeeds(cfg, truth, -1)
	if err != nil {
		return nil, err
	}
	var setups []float64
	var g *factorgraph.Graph
	for range lsSetups {
		g = nil // let the previous set-up's graph go before building the next
		var d time.Duration
		if g, d, err = labelSparseSetup(n, edges, warmSeeds); err != nil {
			return nil, err
		}
		setups = append(setups, d.Seconds())
	}
	heap := heapMiB()
	gold, err := factorgraph.GoldStandard(g, truth, lsK)
	if err != nil {
		return nil, fmt.Errorf("GoldStandard: %w", err)
	}

	passes := max(1, int(math.Round(lsPassRate*cfg.seconds)))
	var est, prop, both latencies
	var busy time.Duration
	var accs, goldAccs, pairedAccs []float64
	for i := range passes {
		seeds, err := passSeeds(cfg, truth, i)
		if err != nil {
			return nil, err
		}
		rep.attempted++
		p, err := runPass(g, seeds)
		if err != nil {
			rep.failed++
			est.fail()
			prop.fail()
			both.fail()
			fmt.Fprintf(cfg.log, "pass %d failed: %v\n", i, err)
			continue
		}
		busy += p.estimate + p.propag
		est.add(p.estimate)
		prop.add(p.propag)
		both.add(p.estimate + p.propag)
		acc := accuracy(dense.ArgmaxRows(p.beliefs), truth, seeds)
		accs = append(accs, acc)
		if i == 0 {
			ref := referenceLinBP(g.Adj, seeds, lsK, p.est.H)
			d := maxAbsDiff(ref, p.beliefs)
			rep.check("beliefs_match_reference", d <= refTol,
				"pass 0: max |F - F_ref| = %.3g (limit %.0g) over %d×%d beliefs", d, refTol, n, lsK)
		}
		if i%lsGoldEvery == 0 {
			fg, err := factorgraph.PropagateBeliefs(g, seeds, lsK, gold)
			if err != nil {
				return nil, fmt.Errorf("gold propagation: %w", err)
			}
			goldAccs = append(goldAccs, accuracy(dense.ArgmaxRows(fg), truth, seeds))
			pairedAccs = append(pairedAccs, acc)
		}
	}
	heap = max(heap, heapMiB())

	checkAccuracy(rep, accs, pairedAccs, goldAccs)
	rep.check("no_failed_ops", rep.failed == 0, "%d of %d passes failed", rep.failed, rep.attempted)

	fmt.Fprintf(cfg.log, "label-sparse: n=%d m=%d k=%d h=%g labels=1/%g seed=%d passes=%d\n",
		n, len(edges), lsK, lsSkew, 1/lsLabelFrac, cfg.seed, passes)
	fmt.Fprintf(cfg.log, "set-up (NewGraph + warm-up pass) s: %s\n", fmtList(setups))
	pe, ve := est.tail()
	pp, vp := prop.tail()
	fmt.Fprintf(cfg.log, "estimate_s median %.4f (write); label_s median %.4f (estimate + propagate); propagate median %.4f (read)\n",
		est.p50()/1e3, both.p50()/1e3, prop.p50()/1e3)
	fmt.Fprintf(cfg.log, "tails: write p%.0f %.1f ms, read p%.0f %.1f ms over %d passes; within limits (%d ms, %d ms): %.3f, %.3f\n",
		pe*100, ve, pp*100, vp, passes, lsWriteLimitMs, lsReadLimitMs, est.within(lsWriteLimitMs), prop.within(lsReadLimitMs))
	rep.set("setup_s", median(setups))
	rep.set("read_p50_ms", prop.p50())
	rep.set("read_in_limit_frac", prop.within(lsReadLimitMs))
	rep.set("write_p50_ms", est.p50())
	rep.set("write_in_limit_frac", est.within(lsWriteLimitMs))
	rep.set("capacity_ops_s", float64(len(accs))/busy.Seconds())
	rep.set("accuracy", median(accs))
	rep.set("ok_frac", okFrac(rep))
	rep.set("heap_mb", heap)
	return rep, nil
}

// checkAccuracy checks the median accuracy with the estimated H against
// chance, and on the paired passes against the gold-standard H.
func checkAccuracy(rep *report, accs, paired, gold []float64) {
	med, medPaired, medGold := median(accs), median(paired), median(gold)
	rep.check("accuracy_above_chance", med > 1.0/lsK,
		"median accuracy %.4f over %d passes, chance %.4f", med, len(accs), 1.0/lsK)
	rep.check("accuracy_near_gold", medPaired >= medGold-lsGoldTol,
		"median %.4f with estimated H vs %.4f with gold H over %d paired passes (gap %.4f, limit %.2f)",
		medPaired, medGold, len(gold), medGold-medPaired, lsGoldTol)
}

// referenceLinBP recomputes the paper's LinBP update F ← X + W·F·H̃ (s=0.5,
// 10 iterations, centered X and H) with plain loops over the CSR rows. It
// shares only ρ(W) and ρ(H̃) with the program, so a fault in the sparse
// kernel, the executor or the propagation state shows as a difference.
func referenceLinBP(w *sparse.CSR, seeds []int, k int, h *dense.Matrix) *dense.Matrix {
	n := w.N
	inv := 1 / float64(k)
	hc := dense.AddScalar(h, -inv)
	eps := 0.5 / (w.SpectralRadiusCached(50) * dense.SpectralRadiusSym(dense.Symmetrize(hc), 200))
	x := dense.New(n, k)
	for i, c := range seeds {
		for j := range k {
			x.Data[i*k+j] = -inv
		}
		if c >= 0 {
			x.Data[i*k+c] += 1
		}
	}
	f := x.Clone()
	fh := dense.New(n, k)
	next := dense.New(n, k)
	for range 10 {
		for i := range n {
			for j := range k {
				var acc float64
				for c := range k {
					acc += f.Data[i*k+c] * hc.Data[c*k+j]
				}
				fh.Data[i*k+j] = eps * acc
			}
		}
		for i := range n {
			cols, wts := w.Row(i)
			for j := range k {
				var acc float64
				for e, c := range cols {
					v := fh.Data[int(c)*k+j]
					if wts != nil {
						v *= wts[e]
					}
					acc += v
				}
				next.Data[i*k+j] = x.Data[i*k+j] + acc
			}
		}
		f, next = next, f
	}
	return f
}

func maxAbsDiff(a, b *dense.Matrix) float64 {
	if a.Rows != b.Rows || a.Cols != b.Cols {
		return math.Inf(1)
	}
	var d float64
	for i, v := range a.Data {
		diff := math.Abs(v - b.Data[i])
		if math.IsNaN(diff) {
			return math.Inf(1)
		}
		d = max(d, diff)
	}
	return d
}

// accuracy is the share of nodes unlabeled in seeds whose predicted class
// equals the planted one, computed here rather than by the program.
func accuracy(pred, truth, seeds []int) float64 {
	var hit, total int
	for i, t := range truth {
		if seeds[i] >= 0 {
			continue
		}
		total++
		if pred[i] == t {
			hit++
		}
	}
	if total == 0 {
		return 0
	}
	return float64(hit) / float64(total)
}
