package main

import (
	"fmt"
	"hash/fnv"
	"math"
	"runtime"
	"strings"

	"factorgraph/internal/sparse"
)

// scaled is size v at the invocation's scale, at least 16.
func scaled(v int, scale float64) int {
	return max(16, int(math.Round(float64(v)*scale)))
}

// streamSeed derives an independent seed for one named random stream of a
// workload, so adding a stream never shifts another's values.
func streamSeed(seed uint64, stream string, i uint64) uint64 {
	h := fnv.New64a()
	fmt.Fprintf(h, "%d/%s/%d", seed, stream, i)
	return h.Sum64()
}

// edgeList returns each undirected edge of a symmetric CSR once (u < v).
func edgeList(w *sparse.CSR) [][2]int32 {
	out := make([][2]int32, 0, w.NNZ()/2)
	for u := range w.N {
		cols, _ := w.Row(u)
		for _, v := range cols {
			if int(v) > u {
				out = append(out, [2]int32{int32(u), v})
			}
		}
	}
	return out
}

// heapMiB is the live heap after a forced collection. The second cycle
// frees what the first only moved to sync.Pool's victim cache.
func heapMiB() float64 {
	runtime.GC()
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return float64(ms.HeapAlloc) / (1 << 20)
}

// okFrac is the share of attempted ops that succeeded.
func okFrac(r *report) float64 {
	if r.attempted == 0 {
		return 0
	}
	return float64(r.attempted-r.failed) / float64(r.attempted)
}

func fmtList(xs []float64) string {
	parts := make([]string, len(xs))
	for i, x := range xs {
		parts[i] = fmt.Sprintf("%.4g", x)
	}
	return strings.Join(parts, " ")
}
