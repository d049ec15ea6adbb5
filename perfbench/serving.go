package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"math/rand/v2"
	"net"
	"net/http"
	"strconv"
	"strings"
	"sync"
	"time"

	"factorgraph"
	"factorgraph/internal/registry"
	"factorgraph/internal/serve"
	"factorgraph/internal/telemetry"
)

// servingSpec parameterizes the two serving workloads: one graph behind
// internal/serve's handler on a loopback listener, driven by an open loop
// of reads (classify 32 nodes) and writes (label patches or edge batches).
type servingSpec struct {
	name         string
	nodes, edges int
	k            int
	skew         float64
	labelFrac    float64
	// rate is the open loop's ops per second; the op count is rate ×
	// --seconds, so sequences are bounded by count.
	rate float64
	// writeEvery makes every writeEvery-th op a write (0: none), so writes
	// are evenly spread and the schedule itself brings no bursts.
	writeEvery int
	// mutateBatch is the edge ops per PATCH /edges; 0 makes the writes
	// single-node PATCH /labels calls.
	mutateBatch     int
	compactFraction float64
	asyncCompact    bool
	// capacityOps is the closed loop's op count per second of --seconds.
	capacityOps float64
	// readLimitMs and writeLimitMs are the latency limits an op must meet
	// to count as answered in time.
	readLimitMs, writeLimitMs float64
}

// readNodes is the node count of every classify request.
const readNodes = 32

// capacityBlocks is how many blocks the closed loop's ops run in.
const capacityBlocks = 5

// servingSetups is how many times each invocation registers the graph;
// setup_s is the median.
const servingSetups = 3

// Both serving workloads send 260 ops/s, one in 26 a write: at 20 s that
// is 5,000 reads (a p99 with fifty samples beyond it) and 200 writes (a p95
// with ten), and a write stream that keeps the writer connection about 40%
// busy on two cores. Patch costs vary more from node to node than edge
// batches do, so patch-read's closed loop runs more ops.
var patchReadSpec = servingSpec{
	name: "patch-read", nodes: 200_000, edges: 400_000, k: 3, skew: 8, labelFrac: 0.05,
	rate: 260, writeEvery: 26, capacityOps: 300, readLimitMs: 10, writeLimitMs: 150,
}

// mutate-stream's compact_fraction is low enough that about three
// background compactions and epoch swaps land in every run (one per
// ~1,000 edge ops).
var mutateStreamSpec = servingSpec{
	name: "mutate-stream", nodes: 200_000, edges: 400_000, k: 3, skew: 8, labelFrac: 0.05,
	rate: 260, writeEvery: 26, mutateBatch: 16, compactFraction: 0.005, asyncCompact: true,
	capacityOps: 200, readLimitMs: 10, writeLimitMs: 150,
}

func runPatchRead(cfg config) (*report, error)    { return runServing(cfg, patchReadSpec) }
func runMutateStream(cfg config) (*report, error) { return runServing(cfg, mutateStreamSpec) }

// servingInput is the generated graph, its planted classes and the initial
// label state, plus the upload body's TSV payloads.
type servingInput struct {
	spec          servingSpec
	n             int
	truth, seeds  []int
	edges         [][2]int32
	edgesTSV      string
	labelsTSV     string
	labeledAtLoad int
}

func makeServingInput(cfg config, spec servingSpec) (*servingInput, error) {
	g, truth, err := factorgraph.Generate(factorgraph.GenerateConfig{
		N: scaled(spec.nodes, cfg.scale), M: scaled(spec.edges, cfg.scale), K: spec.k,
		H: factorgraph.SkewedH(spec.k, spec.skew), Seed: cfg.seed,
	})
	if err != nil {
		return nil, fmt.Errorf("generating graph: %w", err)
	}
	seeds, err := factorgraph.SampleSeeds(truth, spec.k, spec.labelFrac, streamSeed(cfg.seed, spec.name+"/labels", 0))
	if err != nil {
		return nil, err
	}
	edges := edgeList(g.Adj)
	// The upload format infers n as the largest node id plus one.
	n := 0
	for _, e := range edges {
		n = max(n, int(e[1])+1)
	}
	return newServingInput(spec, n, edges, truth[:n], seeds[:n]), nil
}

// newServingInput wraps a graph and its label state, with the upload's
// TSV payloads.
func newServingInput(spec servingSpec, n int, edges [][2]int32, truth, seeds []int) *servingInput {
	var eb, lb strings.Builder
	for _, e := range edges {
		fmt.Fprintf(&eb, "%d\t%d\n", e[0], e[1])
	}
	in := &servingInput{spec: spec, n: n, truth: truth, seeds: seeds, edges: edges, edgesTSV: eb.String()}
	for i, c := range seeds {
		if c >= 0 {
			fmt.Fprintf(&lb, "%d\t%d\n", i, c)
			in.labeledAtLoad++
		}
	}
	in.labelsTSV = lb.String()
	return in
}

func (in *servingInput) createBody(name string) ([]byte, error) {
	return json.Marshal(serve.CreateGraphRequest{
		Name: name, K: in.spec.k, Incremental: true,
		CompactFraction: in.spec.compactFraction, AsyncCompact: in.spec.asyncCompact,
		Inline: &serve.InlineGraphSpec{Edges: in.edgesTSV, Labels: in.labelsTSV},
	})
}

// harness is internal/serve's handler — the one cmd/serve mounts — on an
// in-process loopback listener, with two client connections.
type harness struct {
	srv     *serve.Server
	hs      *http.Server
	done    chan struct{}
	base    string
	clients [2]*http.Client
}

func startHarness() (*harness, error) {
	srv := serve.NewMulti(registry.New(registry.Options{}), serve.Options{})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		srv.Close()
		return nil, fmt.Errorf("listening on loopback: %w", err)
	}
	h := &harness{srv: srv, hs: &http.Server{Handler: srv}, done: make(chan struct{}), base: "http://" + ln.Addr().String()}
	go func() {
		defer close(h.done)
		_ = h.hs.Serve(ln) // returns http.ErrServerClosed on close
	}()
	for i := range h.clients {
		h.clients[i] = &http.Client{Transport: &http.Transport{
			MaxConnsPerHost: 1, MaxIdleConnsPerHost: 1, DisableCompression: true,
		}}
	}
	return h, nil
}

func (h *harness) close() {
	for _, c := range h.clients {
		c.CloseIdleConnections()
	}
	_ = h.hs.Close()
	<-h.done
	h.srv.Close()
}

// do sends one request on client c and returns the status and body.
func (h *harness) do(c int, method, path string, body []byte) (int, []byte, error) {
	req, err := http.NewRequest(method, h.base+path, bytes.NewReader(body))
	if err != nil {
		return 0, nil, err
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := h.clients[c].Do(req)
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	out, err := io.ReadAll(resp.Body)
	return resp.StatusCode, out, err
}

// doOK is do for requests outside the measured ops, where anything but a
// 2xx status is an error.
func (h *harness) doOK(method, path string, body []byte) ([]byte, error) {
	status, out, err := h.do(0, method, path, body)
	if err == nil && (status < 200 || status > 299) {
		err = fmt.Errorf("status %d: %s", status, bytes.TrimSpace(out))
	}
	if err != nil {
		return nil, fmt.Errorf("%s %s: %w", method, path, err)
	}
	return out, nil
}

// register uploads the graph under name and returns once the first
// classify has been answered: the set-up a user waits for.
func (h *harness) register(in *servingInput, name string, probe []byte) (time.Duration, error) {
	body, err := in.createBody(name)
	if err != nil {
		return 0, err
	}
	t0 := time.Now()
	if _, err := h.doOK(http.MethodPost, "/v1/graphs", body); err != nil {
		return 0, err
	}
	if _, err := h.doOK(http.MethodPost, "/v1/graphs/"+name+"/classify", probe); err != nil {
		return 0, err
	}
	return time.Since(t0), nil
}

type opKind int

const (
	opRead opKind = iota
	opPatch
	opMutate
)

// op is one pre-encoded request together with what its response must
// report.
type op struct {
	kind opKind
	body []byte

	nodes       []int // read
	topK        int
	node, class int // patch
	// labeled is the seed count the patch response must report; with
	// concurrent writers it is the range [labeledLo, labeled].
	labeled, labeledLo int
	muts               []factorgraph.EdgeMutation // mutate
	nSet, nRemove      int
}

func (o *op) path(graph string) (method, path string) {
	switch o.kind {
	case opPatch:
		return http.MethodPatch, "/v1/graphs/" + graph + "/labels"
	case opMutate:
		return http.MethodPatch, "/v1/graphs/" + graph + "/edges"
	}
	return http.MethodPost, "/v1/graphs/" + graph + "/classify"
}

// verify checks a response against what the op sent.
func (o *op) verify(status int, body []byte) error {
	if status != http.StatusOK {
		return fmt.Errorf("status %d: %s", status, bytes.TrimSpace(body))
	}
	switch o.kind {
	case opRead:
		var r serve.ClassifyResponse
		if err := json.Unmarshal(body, &r); err != nil {
			return err
		}
		if r.Count != len(o.nodes) || len(r.Results) != len(o.nodes) {
			return fmt.Errorf("classify returned %d results for %d nodes", len(r.Results), len(o.nodes))
		}
		for i, res := range r.Results {
			if res.Node != o.nodes[i] || len(res.Top) != o.topK {
				return fmt.Errorf("classify result %d is node %d with %d scores, want node %d with %d",
					i, res.Node, len(res.Top), o.nodes[i], o.topK)
			}
		}
	case opPatch:
		var r serve.LabelsPatchResponse
		if err := json.Unmarshal(body, &r); err != nil {
			return err
		}
		if r.Labeled < o.labeledLo || r.Labeled > o.labeled {
			return fmt.Errorf("patch reports %d labeled nodes, want %s", r.Labeled, rangeStr(o.labeledLo, o.labeled))
		}
	case opMutate:
		var r serve.EdgesPatchResponse
		if err := json.Unmarshal(body, &r); err != nil {
			return err
		}
		if r.SetEdges != o.nSet || r.RemovedEdges != o.nRemove || r.MissingRemoves != 0 {
			return fmt.Errorf("edge patch reports set=%d removed=%d missing=%d, sent set=%d remove=%d",
				r.SetEdges, r.RemovedEdges, r.MissingRemoves, o.nSet, o.nRemove)
		}
	}
	return nil
}

func rangeStr(lo, hi int) string {
	if lo == hi {
		return strconv.Itoa(hi)
	}
	return fmt.Sprintf("%d..%d", lo, hi)
}

// opGen is the generation-time model of the served state: every op is
// drawn from it and applied to it, so the state the server must end in is
// known without asking the server.
type opGen struct {
	spec      servingSpec
	rng       *rand.Rand
	n         int
	truth     []int
	labels    []int
	labeled   int
	unlabeled []int
	edgeSet   map[uint64]struct{}
	// added holds edges this run upserted that are still present; only
	// they are ever removed. While concurrent is set, new upserts are not
	// added to it.
	added      []uint64
	concurrent bool
	// touched collects nodes whose beliefs a write perturbed directly.
	touched []int
}

func newOpGen(in *servingInput, stream string, seed uint64) *opGen {
	g := &opGen{
		spec: in.spec, rng: rand.New(rand.NewPCG(streamSeed(seed, in.spec.name+"/"+stream, 0), 1)),
		n: in.n, truth: in.truth, labels: append([]int(nil), in.seeds...), labeled: in.labeledAtLoad,
		edgeSet: make(map[uint64]struct{}, len(in.edges)),
	}
	for i, c := range g.labels {
		if c < 0 {
			g.unlabeled = append(g.unlabeled, i)
		}
	}
	g.rng.Shuffle(len(g.unlabeled), func(i, j int) { g.unlabeled[i], g.unlabeled[j] = g.unlabeled[j], g.unlabeled[i] })
	for _, e := range in.edges {
		g.edgeSet[edgeKey(int(e[0]), int(e[1]))] = struct{}{}
	}
	return g
}

func edgeKey(u, v int) uint64 {
	if u > v {
		u, v = v, u
	}
	return uint64(u)<<32 | uint64(v)
}

func (g *opGen) read() op {
	nodes := make([]int, readNodes)
	for i := range nodes {
		nodes[i] = g.rng.IntN(g.n)
	}
	body, _ := json.Marshal(serve.ClassifyRequest{Nodes: nodes, TopK: g.spec.k})
	return op{kind: opRead, body: body, nodes: nodes, topK: g.spec.k}
}

// patch labels one unlabeled node with its planted class, as a user
// supplying a new label would.
func (g *opGen) patch() op {
	node := g.unlabeled[len(g.unlabeled)-1]
	g.unlabeled = g.unlabeled[:len(g.unlabeled)-1]
	class := g.truth[node]
	g.labels[node] = class
	g.labeled++
	g.touched = append(g.touched, node)
	body, _ := json.Marshal(serve.LabelsPatch{Set: map[string]int{strconv.Itoa(node): class}})
	return op{kind: opPatch, body: body, node: node, class: class, labeled: g.labeled, labeledLo: g.labeled}
}

// mutate draws a batch: each edge op removes an edge an earlier batch of
// this run added (half the time, when there is one) or upserts a new
// random edge. The batch is sent as upserts, then removals — the order the
// handler applies them in.
func (g *opGen) mutate() op {
	var set [][]float64
	var remove [][]int
	var fresh []uint64
	for range g.spec.mutateBatch {
		if len(g.added) > 0 && g.rng.IntN(2) == 0 {
			i := g.rng.IntN(len(g.added))
			key := g.added[i]
			g.added[i] = g.added[len(g.added)-1]
			g.added = g.added[:len(g.added)-1]
			delete(g.edgeSet, key)
			remove = append(remove, []int{int(key >> 32), int(key & math.MaxUint32)})
			continue
		}
		var u, v int
		for {
			u, v = g.rng.IntN(g.n), g.rng.IntN(g.n)
			if _, dup := g.edgeSet[edgeKey(u, v)]; u != v && !dup && !removedIn(remove, u, v) {
				break
			}
		}
		g.edgeSet[edgeKey(u, v)] = struct{}{}
		fresh = append(fresh, edgeKey(u, v))
		set = append(set, []float64{float64(u), float64(v)})
	}
	if !g.concurrent {
		// On concurrent connections these upserts may still be in flight
		// when a later batch lands, so they must not be removed.
		g.added = append(g.added, fresh...)
	}
	var muts []factorgraph.EdgeMutation
	for _, e := range set {
		muts = append(muts, factorgraph.EdgeMutation{U: int(e[0]), V: int(e[1])})
	}
	for _, e := range remove {
		muts = append(muts, factorgraph.EdgeMutation{U: e[0], V: e[1], Remove: true})
	}
	for _, m := range muts {
		g.touched = append(g.touched, m.U, m.V)
	}
	body, _ := json.Marshal(serve.EdgesPatch{Set: set, Remove: remove})
	return op{kind: opMutate, body: body, muts: muts, nSet: len(set), nRemove: len(remove)}
}

func removedIn(remove [][]int, u, v int) bool {
	for _, e := range remove {
		if edgeKey(e[0], e[1]) == edgeKey(u, v) {
			return true
		}
	}
	return false
}

func (g *opGen) write() op {
	if g.spec.mutateBatch > 0 {
		return g.mutate()
	}
	return g.patch()
}

// sequence draws count ops, every writeEvery-th a write. concurrent marks
// a sequence
// whose writes may run on both connections at once: removals then target
// only edges added before it, and a patch response may count any of the
// sequence's patches.
func (g *opGen) sequence(count int, concurrent bool) []op {
	g.concurrent = concurrent
	lo := g.labeled + 1
	ops := make([]op, count)
	for i := range ops {
		if g.spec.writeEvery > 0 && (i+1)%g.spec.writeEvery == 0 {
			ops[i] = g.write()
		} else {
			ops[i] = g.read()
		}
	}
	if concurrent {
		for i := range ops {
			if ops[i].kind == opPatch {
				ops[i].labeledLo, ops[i].labeled = lo, g.labeled
			}
		}
	}
	return ops
}

// opResult is one executed op: latency from its due time (open loop) or
// its send time (closed loop), and whether it and its response were right.
type opResult struct {
	lat time.Duration
	err error
}

// openLoop sends ops on a fixed schedule, op i due at i/rate: writes in
// sequence order on connection 0, reads on connection 1. An op waiting for
// its connection keeps its due time, so a stall counts against every op it
// delays. It returns how late the scheduler itself ran at worst.
func openLoop(h *harness, graph string, ops []op, rate float64) ([]opResult, time.Duration) {
	res := make([]opResult, len(ops))
	start := time.Now().Add(5 * time.Millisecond)
	due := func(i int) time.Time { return start.Add(time.Duration(float64(i) / rate * float64(time.Second))) }
	// Sized to the op count so the scheduler never blocks on a busy
	// connection.
	queues := [2]chan int{make(chan int, len(ops)), make(chan int, len(ops))}
	var wg sync.WaitGroup
	for c := range queues {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range queues[c] {
				res[i] = execute(h, c, graph, &ops[i], due(i))
			}
		}()
	}
	var late time.Duration
	for i := range ops {
		if d := time.Until(due(i)); d > 0 {
			time.Sleep(d)
		}
		late = max(late, time.Since(due(i)))
		c := 1
		if ops[i].kind != opRead {
			c = 0
		}
		queues[c] <- i
	}
	close(queues[0])
	close(queues[1])
	wg.Wait()
	return res, late
}

// closedLoop runs ops on both connections, each sending its next op as
// soon as the previous one is answered, and returns the wall time.
func closedLoop(h *harness, graph string, ops []op) ([]opResult, time.Duration) {
	res := make([]opResult, len(ops))
	queue := make(chan int, len(ops)) // holds every op up front
	for i := range ops {
		queue <- i
	}
	close(queue)
	t0 := time.Now()
	var wg sync.WaitGroup
	for c := range h.clients {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range queue {
				res[i] = execute(h, c, graph, &ops[i], time.Now())
			}
		}()
	}
	wg.Wait()
	return res, time.Since(t0)
}

func execute(h *harness, c int, graph string, o *op, from time.Time) opResult {
	method, path := o.path(graph)
	status, body, err := h.do(c, method, path, o.body)
	lat := time.Since(from)
	if err == nil {
		err = o.verify(status, body)
	}
	return opResult{lat: lat, err: err}
}

// counterKeys are the server counters whose deltas a run records.
var counterKeys = []string{
	"fg_residual_pushes_total",
	"fg_residual_edges_traversed_total",
	"fg_engine_propagations_total",
	"fg_engine_compactions_total",
	"fg_residual_fallback_sweeps_total",
	"fg_engine_sketch_delta_applies_total",
}

func (h *harness) counters() (map[string]float64, error) {
	body, err := h.doOK(http.MethodGet, "/metrics", nil)
	if err != nil {
		return nil, err
	}
	return telemetry.ParseTextTotals(bytes.NewReader(body))
}

func printCounterDeltas(w io.Writer, phase string, before, after map[string]float64) {
	var parts []string
	for _, k := range counterKeys {
		parts = append(parts, fmt.Sprintf("%s=%.0f", strings.TrimSuffix(strings.TrimPrefix(k, "fg_"), "_total"), after[k]-before[k]))
	}
	fmt.Fprintf(w, "counts %s: %s\n", phase, strings.Join(parts, " "))
}

func runServing(cfg config, spec servingSpec) (*report, error) {
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
	probe := gen.read().body
	var setups []float64
	graph := ""
	for i := range servingSetups {
		if graph != "" {
			if _, err := h.doOK(http.MethodDelete, "/v1/graphs/"+graph, nil); err != nil {
				return nil, err
			}
		}
		graph = fmt.Sprintf("%s-%d", spec.name, i)
		d, err := h.register(in, graph, probe)
		if err != nil {
			return nil, fmt.Errorf("set-up: %w", err)
		}
		setups = append(setups, d.Seconds())
	}
	heap := heapMiB()

	eng, release, err := h.srv.Registry().Acquire(graph)
	if err != nil {
		return nil, err
	}
	release() // the registry has no memory budget, so nothing evicts it
	count := max(1, int(math.Round(spec.rate*cfg.seconds)))
	ops := gen.sequence(count, false)
	before, err := h.counters()
	if err != nil {
		return nil, err
	}
	s0 := eng.Stats()
	res, late := openLoop(h, graph, ops, spec.rate)
	s1 := eng.Stats()
	after, err := h.counters()
	if err != nil {
		return nil, err
	}
	var reads, writes latencies
	badResponses := tally(rep, ops, res, &reads, &writes, cfg.log)

	// The closed loop runs in capacityBlocks back-to-back blocks and
	// reports the median block's rate, so one slow stretch of the run
	// does not set the figure.
	capOps := gen.sequence(max(capacityBlocks, int(math.Round(spec.capacityOps*cfg.seconds))), true)
	var capReads, capWrites latencies
	var rates []float64
	for b := range capacityBlocks {
		block := capOps[b*len(capOps)/capacityBlocks : (b+1)*len(capOps)/capacityBlocks]
		res, wall := closedLoop(h, graph, block)
		rates = append(rates, float64(len(block))/wall.Seconds())
		badResponses += tally(rep, block, res, &capReads, &capWrites, cfg.log)
	}
	rep.check("responses_match_requests", badResponses == 0, "%d of %d responses wrong or failed", badResponses, len(ops)+len(capOps))

	acc, err := verifyServed(rep, h, in, gen, graph, cfg)
	if err != nil {
		return nil, err
	}
	heap = max(heap, heapMiB())

	pr, vr := reads.tail()
	pw, vw := writes.tail()
	fmt.Fprintf(cfg.log, "%s: n=%d m=%d k=%d h=%g labeled=%d seed=%d open loop %.0f ops/s × %.0f s: %d reads, %d writes (scheduler late by at most %v)\n",
		spec.name, in.n, len(in.edges), spec.k, spec.skew, in.labeledAtLoad, cfg.seed, spec.rate, cfg.seconds,
		len(reads.ms), len(writes.ms), late.Round(time.Microsecond))
	fmt.Fprintf(cfg.log, "set-up (POST /v1/graphs → first classify) s: %s\n", fmtList(setups))
	fmt.Fprintf(cfg.log, "read p50 %.3f ms, p%.0f %.3f ms over %d, %.4f within %g ms; write p50 %.3f ms, p%.0f %.3f ms over %d, %.4f within %g ms\n",
		reads.p50(), pr*100, vr, len(reads.ms), reads.within(spec.readLimitMs), spec.readLimitMs,
		writes.p50(), pw*100, vw, len(writes.ms), writes.within(spec.writeLimitMs), spec.writeLimitMs)
	fmt.Fprintf(cfg.log, "closed loop: %d ops on 2 connections in %d blocks, ops/s %s (read p50 %.3f ms, write p50 %.3f ms)\n",
		len(capOps), capacityBlocks, fmtList(rates), capReads.p50(), capWrites.p50())
	printCounterDeltas(cfg.log, "open loop", before, after)
	fmt.Fprintf(cfg.log, "open loop: %d compactions (%d by epoch swap), %d full propagations, slowest read %.1f ms\n",
		s1.TopoCompactions-s0.TopoCompactions, s1.TopoAsyncCompactions-s0.TopoAsyncCompactions,
		s1.Propagations-s0.Propagations, percentile(reads.ms, 1))

	rep.set("setup_s", median(setups))
	rep.set("read_p50_ms", reads.p50())
	rep.set("read_in_limit_frac", reads.within(spec.readLimitMs))
	rep.set("write_p50_ms", writes.p50())
	rep.set("write_in_limit_frac", writes.within(spec.writeLimitMs))
	rep.set("capacity_ops_s", median(rates))
	rep.set("accuracy", acc)
	rep.set("ok_frac", okFrac(rep))
	rep.set("heap_mb", heap)
	return rep, nil
}

// tally folds executed ops into the report and the latency samples and
// returns how many failed.
func tally(rep *report, ops []op, res []opResult, reads, writes *latencies, log io.Writer) int {
	bad := 0
	for i, r := range res {
		l := writes
		if ops[i].kind == opRead {
			l = reads
		}
		rep.attempted++
		if r.err != nil {
			rep.failed++
			bad++
			l.fail()
			if bad <= 5 {
				fmt.Fprintf(log, "op %d failed: %v\n", i, r.err)
			}
			continue
		}
		l.add(r.lat)
	}
	return bad
}

// coldIterations is the iteration count of the cold reference solve; at
// s = 0.5 the iterate is converged far below the 1e-6 comparison limit.
const coldIterations = 60

// beliefTol bounds served beliefs against the cold solve.
const beliefTol = 1e-6

// verifyServed forces a final compaction (ε stays pinned between
// compactions), then checks the served label state and the top-k beliefs
// of probe nodes against a cold solve on the materialized graph, and
// returns the accuracy of the served labels on unlabeled nodes.
func verifyServed(rep *report, h *harness, in *servingInput, gen *opGen, graph string, cfg config) (float64, error) {
	body, err := h.doOK(http.MethodPatch, "/v1/graphs/"+graph+"/edges", []byte(`{"compact":true}`))
	if err != nil {
		return 0, fmt.Errorf("final compaction: %w", err)
	}
	var cr serve.EdgesPatchResponse
	if err := json.Unmarshal(body, &cr); err != nil {
		return 0, err
	}
	rep.check("edge_count", cr.Edges == len(gen.edgeSet), "served graph has %d edges, expected %d", cr.Edges, len(gen.edgeSet))

	body, err = h.doOK(http.MethodGet, "/v1/graphs/"+graph+"/labels", nil)
	if err != nil {
		return 0, err
	}
	var lr serve.LabelsResponse
	if err := json.Unmarshal(body, &lr); err != nil {
		return 0, err
	}
	mismatched := 0
	for i, c := range gen.labels {
		got, ok := lr.Labels[strconv.Itoa(i)]
		if c >= 0 && (!ok || got != c) || c < 0 && ok {
			mismatched++
		}
	}
	rep.check("label_state", mismatched == 0 && lr.Count == gen.labeled,
		"%d labeled served, %d expected, %d nodes differ", lr.Count, gen.labeled, mismatched)

	eng, release, err := h.srv.Registry().Acquire(graph)
	if err != nil {
		return 0, err
	}
	defer release()
	hm := eng.Estimate().H

	edges := make([][2]int32, 0, len(gen.edgeSet))
	for key := range gen.edgeSet {
		edges = append(edges, [2]int32{int32(key >> 32), int32(key & math.MaxUint32)})
	}
	g, err := factorgraph.NewGraph(in.n, edges)
	if err != nil {
		return 0, err
	}
	cold, err := factorgraph.NewEngineWithH(g, gen.labels, in.spec.k, hm, "dcer", factorgraph.EngineOptions{Iterations: coldIterations})
	if err != nil {
		return 0, fmt.Errorf("cold solve: %w", err)
	}
	defer cold.Close()
	probes := probeNodes(gen, cfg.seed)
	want, err := cold.Classify(factorgraph.Query{Nodes: probes, TopK: in.spec.k})
	if err != nil {
		return 0, err
	}
	reqBody, _ := json.Marshal(serve.ClassifyRequest{Nodes: probes, TopK: in.spec.k})
	body, err = h.doOK(http.MethodPost, "/v1/graphs/"+graph+"/classify", reqBody)
	if err != nil {
		return 0, err
	}
	var got serve.ClassifyResponse
	if err := json.Unmarshal(body, &got); err != nil {
		return 0, err
	}
	d := topKDiff(got.Results, want)
	rep.check("beliefs_match_cold_solve", d <= beliefTol,
		"max top-%d belief difference %.3g over %d probe nodes (limit %.0g)", in.spec.k, d, len(probes), beliefTol)

	all, err := eng.Classify(factorgraph.Query{})
	if err != nil {
		return 0, err
	}
	pred := make([]int, len(all))
	for i, r := range all {
		pred[i] = r.Label
	}
	return accuracy(pred, in.truth, gen.labels), nil
}

// probeNodes is up to 256 nodes the writes touched plus 256 random ones.
func probeNodes(gen *opGen, seed uint64) []int {
	rng := rand.New(rand.NewPCG(streamSeed(seed, "probes", 0), 2))
	seen := map[int]bool{}
	var out []int
	touched := gen.touched
	rng.Shuffle(len(touched), func(i, j int) { touched[i], touched[j] = touched[j], touched[i] })
	for _, v := range touched {
		if len(out) == 256 {
			break
		}
		if !seen[v] {
			seen[v] = true
			out = append(out, v)
		}
	}
	for range 256 {
		if v := rng.IntN(gen.n); !seen[v] {
			seen[v] = true
			out = append(out, v)
		}
	}
	return out
}

// topKDiff is the largest belief difference between two top-k result
// sets, matching scores by class; a missing node or class counts as +Inf.
func topKDiff(got, want []factorgraph.NodeResult) float64 {
	if len(got) != len(want) {
		return math.Inf(1)
	}
	var d float64
	for i := range want {
		if got[i].Node != want[i].Node || len(got[i].Top) != len(want[i].Top) {
			return math.Inf(1)
		}
		scores := map[int]float64{}
		for _, cs := range want[i].Top {
			scores[cs.Class] = cs.Score
		}
		for _, cs := range got[i].Top {
			w, ok := scores[cs.Class]
			if !ok {
				return math.Inf(1)
			}
			diff := math.Abs(cs.Score - w)
			if math.IsNaN(diff) {
				return math.Inf(1)
			}
			d = max(d, diff)
		}
	}
	return d
}
