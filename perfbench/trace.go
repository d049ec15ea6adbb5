package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"time"

	"factorgraph"
	"factorgraph/internal/telemetry"
)

// perLayer lists the per-layer metrics every workload reports with
// --trace 1. Where a workload has no op of a class (label-sparse serves
// nothing, patch-read never mutates, mutate-stream never patches), that
// class's metrics come from a short probe of it on the workload's graph.
var perLayer = []metricDef{
	{"graph.build_s", "s"},
	{"graph.parse_s", "s"},
	{"sparse.spectral_s", "s"},
	{"sparse.spmm_ns_per_nnz", "ns"},
	{"exec.dense_round_ns_per_nnz", "ns"},
	{"exec.tune_ms", "ms"},
	{"propagation.linbp_s", "s"},
	{"core.summarize_s", "s"},
	{"core.dce_optimize_s", "s"},
	{"delta.spmm_ns_per_nnz", "ns"},
	{"delta.spmm_dirty_ns_per_nnz", "ns"},
	{"delta.row_ns", "ns"},
	{"delta.set_edge_ns", "ns"},
	{"delta.compact_ms", "ms"},
	{"engine.first_solve_s", "s"},
	{"serve.classify_self_us", "us"},
	{"serve.write_self_us", "us"},
	{"registry.acquire_us", "us"},
	{"telemetry.classify_overhead_us", "us"},
	{"engine.classify_us", "us"},
	{"engine.patch_lock_wait_ms", "ms"},
	{"engine.patch_apply_ms", "ms"},
	{"residual.patch_flush_ms", "ms"},
	{"residual.patch_edges", "count"},
	{"residual.patch_ns_per_edge", "ns"},
	{"engine.mutate_lock_wait_ms", "ms"},
	{"engine.mutate_apply_ms", "ms"},
	{"residual.mutate_flush_ms", "ms"},
	{"residual.mutate_edges", "count"},
	{"residual.mutate_ns_per_edge", "ns"},
	{"residual.fallback_ratio", "fraction"},
	{"engine.epoch_swaps", "count"},
	{"core.sketch_updates", "count"},
	{"trace.overhead_ratio", "ratio"},
}

// span is one timed call of the traced run. Spans of one op share Op and
// hang off the op's root span (Parent 0). Calls made to split a layer's
// share out of another call — the same request sent again one layer down —
// are children of the call whose work they repeat, so a span's self time
// is its duration minus its children's. Two kinds of span stand beside the
// op rather than inside it, and are not subtracted from their parent:
//
//   - Paired: a layer the op's own path went around (a write applied
//     in-process is re-sent through the handler, where it is a no-op); its
//     self time stands for that layer on the blocking path, while its
//     children only split it out.
//   - Compare: a variant of a call timed for comparison only (the handler
//     with telemetry off); it is on no path.
type span struct {
	ID      int    `json:"id"`
	Parent  int    `json:"parent"`
	Op      int    `json:"op"`
	Name    string `json:"name"`
	Start   int64  `json:"start_ns"`
	End     int64  `json:"end_ns"`
	Paired  bool   `json:"paired,omitempty"`
	Compare bool   `json:"compare,omitempty"`
}

func (s span) dur() time.Duration { return time.Duration(s.End - s.Start) }

// tracer keeps spans in memory; they are written out when the run ends.
type tracer struct {
	t0    time.Time
	spans []span
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// open starts a span and returns its id.
func (t *tracer) open(name string, parent, op int) int {
	t.spans = append(t.spans, span{ID: len(t.spans) + 1, Parent: parent, Op: op, Name: name, Start: time.Since(t.t0).Nanoseconds()})
	return len(t.spans)
}

// close ends span id and returns its duration.
func (t *tracer) close(id int) time.Duration {
	s := &t.spans[id-1]
	s.End = time.Since(t.t0).Nanoseconds()
	return s.dur()
}

// record adds a span whose extent the program reported rather than the
// tracer observed (lock wait and flush seconds from the engine's meta).
func (t *tracer) record(name string, parent, op int, start int64, d time.Duration) {
	t.spans = append(t.spans, span{ID: len(t.spans) + 1, Parent: parent, Op: op, Name: name, Start: start, End: start + d.Nanoseconds()})
}

// selfTimes returns each span's duration minus its children's, except
// paired and compare children, which ran beside it.
func selfTimes(spans []span) []time.Duration {
	self := make([]time.Duration, len(spans))
	for i, s := range spans {
		self[i] += s.dur()
		if s.Parent > 0 && !s.Paired && !s.Compare {
			self[s.Parent-1] -= s.dur()
		}
	}
	return self
}

// onPath reports, per span, whether its self time is part of its op's
// blocking path: compare spans and the children of paired spans are not.
func onPath(spans []span) []bool {
	on := make([]bool, len(spans))
	for i, s := range spans {
		on[i] = !s.Compare
		if s.Parent > 0 {
			p := spans[s.Parent-1]
			on[i] = on[i] && on[s.Parent-1] && !p.Paired
		}
	}
	return on
}

func (t *tracer) write(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range t.spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// layerTable prints, per span name, the call count and the median
// duration and self time.
func layerTable(w io.Writer, spans []span) {
	self := selfTimes(spans)
	selfs, durs := map[string][]float64{}, map[string][]float64{}
	for i, s := range spans {
		selfs[s.Name] = append(selfs[s.Name], float64(self[i]))
		durs[s.Name] = append(durs[s.Name], float64(s.dur()))
	}
	fmt.Fprintf(w, "%-36s %7s %14s %14s\n", "span", "calls", "median", "median self")
	for _, name := range sortedKeys(selfs) {
		fmt.Fprintf(w, "%-36s %7d %14v %14v\n", name, len(selfs[name]),
			time.Duration(median(durs[name])).Round(100*time.Nanosecond),
			time.Duration(median(selfs[name])).Round(100*time.Nanosecond))
	}
}

// breakdown prints, for the ops whose root span is named root, how much of
// the untraced median latency each layer's median self time accounts for.
func breakdown(w io.Writer, spans []span, root string, untracedP50 float64) {
	self, on := selfTimes(spans), onPath(spans)
	roots := map[int]bool{}
	for _, s := range spans {
		if s.Parent == 0 && s.Name == root {
			roots[s.ID] = true
		}
	}
	// Attribute every span to its op's root by walking parents.
	rootOf := make([]int, len(spans))
	byLayer := map[string][]float64{}
	for i, s := range spans {
		r := s.ID
		if s.Parent > 0 {
			r = rootOf[s.Parent-1]
		}
		rootOf[i] = r
		if roots[r] && on[i] {
			byLayer[s.Name] = append(byLayer[s.Name], float64(self[i]))
		}
	}
	if len(roots) == 0 {
		return
	}
	fmt.Fprintf(w, "%s: %d ops, untraced p50 %.3f ms\n", root, len(roots), untracedP50)
	var accounted float64
	for _, name := range sortedKeys(byLayer) {
		m := median(byLayer[name]) / 1e6
		accounted += m
		fmt.Fprintf(w, "  %-34s %10.4f ms %5.1f%%\n", name+" (self)", m, 100*m/untracedP50)
	}
	fmt.Fprintf(w, "  %-34s %10.4f ms %5.1f%%\n", "unaccounted", untracedP50-accounted, 100*(untracedP50-accounted)/untracedP50)
}

// layerStats accumulates the per-layer numbers the replay's calls report.
type layerStats struct {
	serveRead, serveWrite, acquire, telemetryOff, classify []float64 // µs
	patch, mutate                                          writeStats
	fellBack, writes                                       int
}

type writeStats struct {
	lockWait, apply, flush []float64 // ms
	edges                  []float64
	flushNs, edgeSum       float64
}

func (s *writeStats) add(total time.Duration, lockWait, flush float64, edges int) {
	s.lockWait = append(s.lockWait, lockWait*1e3)
	s.flush = append(s.flush, flush*1e3)
	s.apply = append(s.apply, ms(total)-(lockWait+flush)*1e3)
	s.edges = append(s.edges, float64(edges))
	s.flushNs += flush * 1e9
	s.edgeSum += float64(edges)
}

// set fills prefix.* metrics; ns per edge is the flush time summed over
// the class's writes divided by the edges those flushes traversed.
func (s *writeStats) set(rep *report, prefix string, log io.Writer) {
	rep.set("engine."+prefix+"_lock_wait_ms", median(s.lockWait))
	rep.set("engine."+prefix+"_apply_ms", median(s.apply))
	rep.set("residual."+prefix+"_flush_ms", median(s.flush))
	rep.set("residual."+prefix+"_edges", median(s.edges))
	perEdge := 0.0
	if s.edgeSum > 0 {
		perEdge = s.flushNs / s.edgeSum
	}
	rep.set("residual."+prefix+"_ns_per_edge", perEdge)
	fmt.Fprintf(log, "%s: %d writes traversed %.0f edges in %.3f ms of flush (%.1f ns per edge)\n",
		prefix, len(s.edges), s.edgeSum, s.flushNs/1e6, perEdge)
}

// replayer sends one workload's ops through the program with one client.
type replayer struct {
	h        *harness
	graph    string
	eng      *factorgraph.Engine
	tr       *tracer // nil for the untraced replay
	st       layerStats
	lastMeta writeMeta
}

func newReplayer(h *harness, graph string, tr *tracer) (*replayer, error) {
	eng, release, err := h.srv.Registry().Acquire(graph)
	if err != nil {
		return nil, err
	}
	release() // the registry has no memory budget, so nothing evicts it
	return &replayer{h: h, graph: graph, eng: eng, tr: tr}, nil
}

// untraced sends every op over loopback in order and returns the latencies
// by class.
func (r *replayer) untraced(ops []op) (reads, writes latencies, err error) {
	for i := range ops {
		res := execute(r.h, 0, r.graph, &ops[i], time.Now())
		if res.err != nil {
			return reads, writes, fmt.Errorf("op %d: %w", i, res.err)
		}
		if ops[i].kind == opRead {
			reads.add(res.lat)
		} else {
			writes.add(res.lat)
		}
	}
	return reads, writes, nil
}

// traced runs every op with spans around each layer's call.
func (r *replayer) traced(ops []op, base int) (reads, writes latencies, err error) {
	for i := range ops {
		o := &ops[i]
		var d time.Duration
		switch o.kind {
		case opRead:
			d, err = r.read(base+i, o)
			reads.add(d)
		default:
			d, err = r.write(base+i, o)
			writes.add(d)
		}
		if err != nil {
			return reads, writes, fmt.Errorf("op %d: %w", base+i, err)
		}
	}
	return reads, writes, nil
}

// serveInProcess sends body through the server's handler without a
// connection.
func (r *replayer) serveInProcess(o *op) (int, []byte) {
	method, path := o.path(r.graph)
	req := httptest.NewRequest(method, path, bytes.NewReader(o.body))
	req.Header.Set("Content-Type", "application/json")
	rec := httptest.NewRecorder()
	r.h.srv.ServeHTTP(rec, req)
	return rec.Code, rec.Body.Bytes()
}

func (r *replayer) acquire(parent, op int) error {
	id := r.tr.open("registry.Acquire", parent, op)
	_, release, err := r.h.srv.Registry().Acquire(r.graph)
	if err == nil {
		release()
	}
	r.st.acquire = append(r.st.acquire, us(r.tr.close(id)))
	return err
}

// read sends a classify over loopback (the op), then pairs it with the
// same request through the handler in-process, Registry.Acquire and
// Engine.Classify, and through the handler with telemetry switched off.
func (r *replayer) read(opID int, o *op) (time.Duration, error) {
	root := r.tr.open("op.read", 0, opID)
	method, path := o.path(r.graph)
	status, body, err := r.h.do(0, method, path, o.body)
	lat := r.tr.close(root)
	if err == nil {
		err = o.verify(status, body)
	}
	if err != nil {
		return lat, err
	}
	sv := r.tr.open("serve.ServeHTTP", root, opID)
	status, body = r.serveInProcess(o)
	serveD := r.tr.close(sv)
	if err := o.verify(status, body); err != nil {
		return lat, err
	}
	if err := r.acquire(sv, opID); err != nil {
		return lat, err
	}
	ec := r.tr.open("engine.Classify", sv, opID)
	_, err = r.eng.Classify(factorgraph.Query{Nodes: o.nodes, TopK: o.topK})
	classD := r.tr.close(ec)
	if err != nil {
		return lat, err
	}
	telemetry.SetEnabled(false)
	off := r.tr.open("serve.ServeHTTP.telemetry_off", root, opID)
	r.serveInProcess(o)
	offD := r.tr.close(off)
	telemetry.SetEnabled(true)
	r.tr.spans[off-1].Compare = true
	r.st.classify = append(r.st.classify, us(classD))
	r.st.serveRead = append(r.st.serveRead, us(serveD-classD)-r.st.acquire[len(r.st.acquire)-1])
	r.st.telemetryOff = append(r.st.telemetryOff, us(serveD-offD))
	return lat, nil
}

// write applies a patch or edge batch in-process — Registry.Acquire, then
// the engine call whose meta splits it into lock wait, flush and apply —
// and pairs it with the same request re-sent through the handler, where it
// is a no-op, to measure serve's own share of a write.
func (r *replayer) write(opID int, o *op) (time.Duration, error) {
	name := "op.patch"
	if o.kind == opMutate {
		name = "op.mutate"
	}
	root := r.tr.open(name, 0, opID)
	if err := r.acquire(root, opID); err != nil {
		return 0, err
	}
	call, d, err := r.engineWrite(root, opID, o)
	if err != nil {
		return 0, err
	}
	lat := r.tr.close(root)
	start := r.tr.spans[call-1].Start
	stats := &r.st.patch
	switch m := r.lastMeta; o.kind {
	case opPatch:
		r.tr.record("engine.lock_wait", call, opID, start, secs(m.lockWait))
		r.tr.record("residual.flush", call, opID, start+secs(m.lockWait).Nanoseconds(), secs(m.flush))
		if got := r.eng.LabeledCount(); got < o.labeledLo || got > o.labeled {
			return lat, fmt.Errorf("engine reports %d labeled nodes, want %s", got, rangeStr(o.labeledLo, o.labeled))
		}
	case opMutate:
		stats = &r.st.mutate
		r.tr.record("engine.lock_wait", call, opID, start, secs(m.lockWait))
		r.tr.record("residual.flush", call, opID, start+secs(m.lockWait).Nanoseconds(), secs(m.flush))
	}
	stats.add(d, r.lastMeta.lockWait, r.lastMeta.flush, r.lastMeta.edges)
	r.st.writes++
	if r.lastMeta.fellBack {
		r.st.fellBack++
	}

	sv := r.tr.open("serve.ServeHTTP", root, opID)
	status, body := r.serveInProcess(o)
	serveD := r.tr.close(sv)
	r.tr.spans[sv-1].Paired = true
	if status != http.StatusOK {
		return lat, fmt.Errorf("repeated write: status %d: %s", status, bytes.TrimSpace(body))
	}
	if err := r.acquire(sv, opID); err != nil {
		return lat, err
	}
	_, noop, err := r.engineWrite(sv, opID, o)
	if err != nil {
		return lat, err
	}
	r.st.serveWrite = append(r.st.serveWrite, us(serveD-noop)-r.st.acquire[len(r.st.acquire)-1])
	return lat, nil
}

// writeMeta is the part of PatchMeta and MutateMeta the replay records.
type writeMeta struct {
	lockWait, flush float64
	edges           int
	fellBack        bool
}

// engineWrite makes the op's engine call under a span and keeps its meta
// in r.lastMeta.
func (r *replayer) engineWrite(parent, opID int, o *op) (int, time.Duration, error) {
	if o.kind == opPatch {
		id := r.tr.open("engine.UpdateLabelsMeta", parent, opID)
		m, err := r.eng.UpdateLabelsMeta(map[int]int{o.node: o.class}, nil)
		d := r.tr.close(id)
		r.lastMeta = writeMeta{m.LockWaitSeconds, m.FlushSeconds, m.TouchedEdges, m.FellBack}
		return id, d, err
	}
	id := r.tr.open("engine.MutateTopology", parent, opID)
	m, err := r.eng.MutateTopology(0, o.muts)
	d := r.tr.close(id)
	r.lastMeta = writeMeta{m.LockWaitSeconds, m.FlushSeconds, m.TouchedEdges, m.FellBack}
	if err == nil && !r.tr.spans[parent-1].Paired && (m.SetEdges != o.nSet || m.RemovedEdges != o.nRemove) {
		err = fmt.Errorf("engine applied set=%d removed=%d, sent set=%d remove=%d", m.SetEdges, m.RemovedEdges, o.nSet, o.nRemove)
	}
	return id, d, err
}

func secs(s float64) time.Duration { return time.Duration(s * float64(time.Second)) }
func us(d time.Duration) float64   { return float64(d) / float64(time.Microsecond) }

// setEngineLayers fills the serve, registry, telemetry, engine and
// residual metrics from the replays' samples.
func (st *layerStats) setEngineLayers(rep *report, log io.Writer) {
	rep.set("serve.classify_self_us", median(st.serveRead))
	rep.set("serve.write_self_us", median(st.serveWrite))
	rep.set("registry.acquire_us", median(st.acquire))
	rep.set("telemetry.classify_overhead_us", median(st.telemetryOff))
	rep.set("engine.classify_us", median(st.classify))
	st.patch.set(rep, "patch", log)
	st.mutate.set(rep, "mutate", log)
	ratio := 0.0
	if st.writes > 0 {
		ratio = float64(st.fellBack) / float64(st.writes)
	}
	rep.set("residual.fallback_ratio", ratio)
	fmt.Fprintf(log, "fallbacks: %d of %d writes finished as dense sweeps\n", st.fellBack, st.writes)
}

func traceFile(cfg config) string {
	return filepath.Join(cfg.outDir, fmt.Sprintf("trace-%s-%d.jsonl", cfg.workload, cfg.seed))
}

// finishTrace prints the span table and writes the spans out.
func finishTrace(cfg config, tr *tracer) error {
	fmt.Fprintf(cfg.log, "\nper-span times (%d spans):\n", len(tr.spans))
	layerTable(cfg.log, tr.spans)
	path := traceFile(cfg)
	if err := tr.write(path); err != nil {
		return fmt.Errorf("writing spans: %w", err)
	}
	fmt.Fprintf(cfg.log, "spans written to %s\n", path)
	return nil
}
