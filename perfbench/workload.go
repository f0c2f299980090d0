package main

import (
	"fmt"
	"math/rand/v2"
	"strconv"

	sdquery "repro"
)

// Shape shared by every workload: uniform rows in [0,1)^6, the first three
// dimensions attractive and the last three repulsive, top-10 answers.
const (
	dims = 6
	topK = 10
)

var roles = []sdquery.Role{
	sdquery.Attractive, sdquery.Attractive, sdquery.Attractive,
	sdquery.Repulsive, sdquery.Repulsive, sdquery.Repulsive,
}

// Random streams. Every input derives from (seed, stream, index) alone, so a
// seed fixes the data, every query and every written point regardless of
// how the clients interleave.
const (
	streamData uint64 = iota + 1
	streamQuery
	streamInsert
	streamZipf
	streamChurn
	streamMix
)

// workload is one traffic mix over one deployment.
type workload struct {
	name string
	// cluster serves the rows from two partitions, each a leader and one
	// follower, behind the router; otherwise one node serves them.
	cluster bool
	// durable gives the leaders a write-ahead log (sync=always).
	durable bool
	// zipf draws reads from zipfDistinct fixed queries instead of sending
	// a fresh one each time.
	zipf bool
	// readOnly workloads send no writes while reads are measured and take
	// their write metrics from a single-client write probe that follows.
	readOnly bool
}

// The workloads; BENCHMARK.json says why each was chosen.
var workloads = []workload{
	{name: "topk-cold", readOnly: true},
	{name: "topk-zipf", readOnly: true, zipf: true},
	{name: "rw-durable", durable: true},
	{name: "cluster-rw", cluster: true, durable: true},
}

func findWorkload(name string) (workload, error) {
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
	}
	return workload{}, fmt.Errorf("unknown workload %q", name)
}

const (
	zipfDistinct      = 8192 // distinct queries of topk-zipf
	zipfS             = 1.1
	zipfWarmReads     = 12288 // reads topk-zipf warms its cache with
	churnShare        = 20    // rw-durable churns one row in churnShare (5%)
	clusterWriteEvery = 20    // one cluster-rw operation in 20 (5%) writes
)

func rng(seed int64, stream, index uint64) *rand.Rand {
	return rand.New(rand.NewPCG(uint64(seed)^stream<<56, index))
}

// genRows returns n uniform rows.
func genRows(seed int64, n int) [][]float64 {
	r := rng(seed, streamData, 0)
	flat := make([]float64, n*dims)
	for i := range flat {
		flat[i] = r.Float64()
	}
	rows := make([][]float64, n)
	for i := range rows {
		rows[i] = flat[i*dims : (i+1)*dims : (i+1)*dims]
	}
	return rows
}

// insertPoint is the i-th point a run inserts that is not a re-insert.
func insertPoint(seed int64, i uint64) []float64 {
	r := rng(seed, streamInsert, i)
	p := make([]float64, dims)
	for d := range p {
		p[d] = r.Float64()
	}
	return p
}

// querySet produces the i-th query of a run and its wire body. Query i is a
// uniform point with weights in [0.5, 1.5); zipf workloads only use
// i < zipfDistinct, which are generated once up front.
type querySet struct {
	seed   int64
	cached []readQuery
}

type readQuery struct {
	q    sdquery.Query
	body []byte
}

func newQuerySet(seed int64, zipf bool) *querySet {
	qs := &querySet{seed: seed}
	if zipf {
		qs.cached = make([]readQuery, zipfDistinct)
		for i := range qs.cached {
			qs.cached[i] = qs.make(i)
		}
	}
	return qs
}

func (qs *querySet) get(i int) readQuery {
	if i < len(qs.cached) {
		return qs.cached[i]
	}
	return qs.make(i)
}

func (qs *querySet) make(i int) readQuery {
	r := rng(qs.seed, streamQuery, uint64(i))
	q := sdquery.Query{
		Point:   make([]float64, dims),
		K:       topK,
		Roles:   roles,
		Weights: make([]float64, dims),
	}
	for d := 0; d < dims; d++ {
		q.Point[d] = r.Float64()
		q.Weights[d] = 0.5 + r.Float64()
	}
	b := append([]byte(nil), `{"point":`...)
	b = appendFloats(b, q.Point)
	b = append(b, `,"k":`...)
	b = strconv.AppendInt(b, topK, 10)
	b = append(b, `,"roles":["a","a","a","r","r","r"],"weights":`...)
	b = appendFloats(b, q.Weights)
	b = append(b, '}')
	return readQuery{q: q, body: b}
}

// appendFloats writes a JSON array of shortest round-trip floats, so the
// server decodes exactly the float64 values the oracle scores with.
func appendFloats(b []byte, v []float64) []byte {
	b = append(b, '[')
	for i, x := range v {
		if i > 0 {
			b = append(b, ',')
		}
		b = strconv.AppendFloat(b, x, 'g', -1, 64)
	}
	return append(b, ']')
}

// zipfStream draws query indexes Zipf(s=1.1) over [0, zipfDistinct).
func zipfStream(seed int64, client uint64) func() int {
	z := rand.NewZipf(rng(seed, streamZipf, client), zipfS, 1, zipfDistinct-1)
	return func() int { return int(z.Uint64()) }
}
