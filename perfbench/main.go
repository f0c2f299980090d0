// Command perfbench is the repository's benchmark of the serving stack. It
// starts the system in process with the defaults sdserver and sdrouter ship,
// drives it over loopback TCP from closed-loop clients, checks the answers
// against the scan oracle, and prints its metrics; the last line of standard
// output is one JSON object:
//
//	{"correct": true, "attempted": N, "failed": 0, "metrics": {name: {"value": v, "unit": u}}}
//
// With -trace 0 the metrics are the end-to-end ones (end2end.go); with
// -trace 1 a traced run prints the per-layer ones (layers.go) and writes its
// spans to the work directory. Run it from the repository root through
// run.sh, which builds it first:
//
//	bash perfbench/run.sh -workload topk-cold -seed 1 -seconds 20 -trace 0
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sort"
)

// clients is the number of closed-loop clients every workload runs with;
// rw-durable gives one of them the writes.
const clients = 2

type config struct {
	workload string
	seed     int64
	seconds  int
	trace    bool
	workdir  string
	rows     int // rows served
	setups   int // set-ups per run; setup_s is their median
	// wrap, when set, wraps every node's handler; the smoke test uses it
	// to corrupt answers.
	wrap wrapper
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type report struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
	// Ungated holds figures printed for reading only: too unsteady on a
	// shared 2-CPU machine to bound a change by (see README.md).
	Ungated map[string]metric `json:"-"`
}

func main() {
	var cfg config
	var trace int
	flag.StringVar(&cfg.workload, "workload", "", "workload: topk-cold, topk-zipf, rw-durable or cluster-rw")
	flag.Int64Var(&cfg.seed, "seed", 1, "seed of every generated input")
	flag.IntVar(&cfg.seconds, "seconds", 20, "measured seconds per run")
	flag.IntVar(&trace, "trace", 0, "1 runs the traced run and prints the per-layer metrics")
	flag.StringVar(&cfg.workdir, "workdir", ".bench_build/perfbench", "directory for write-ahead logs and spans")
	flag.Parse()
	cfg.trace = trace == 1
	cfg.rows, cfg.setups = 200_000, 3

	rep, err := benchmark(cfg, os.Stdout)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	line, err := json.Marshal(rep)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
}

// benchmark runs one workload and returns its report, after printing the
// environment and every metric in readable form to out.
func benchmark(cfg config, out *os.File) (*report, error) {
	w, err := findWorkload(cfg.workload)
	if err != nil {
		return nil, err
	}
	if clients > runtime.NumCPU() {
		return nil, fmt.Errorf("%d closed-loop clients need at least as many CPUs, and there are %d", clients, runtime.NumCPU())
	}
	if cfg.seconds < 1 {
		return nil, fmt.Errorf("-seconds %d: need at least 1", cfg.seconds)
	}
	if cfg.workdir, err = filepath.Abs(cfg.workdir); err != nil {
		return nil, err
	}
	if err := os.MkdirAll(cfg.workdir, 0o755); err != nil {
		return nil, err
	}
	env := map[string]any{
		"workload": w.name, "seed": cfg.seed, "seconds": cfg.seconds, "trace": cfg.trace,
		"rows": cfg.rows, "num_cpu": runtime.NumCPU(), "gomaxprocs": runtime.GOMAXPROCS(0),
		"go": runtime.Version(), "clients": clients, "connections": clients,
	}
	envLine, _ := json.Marshal(env) // a map of plain values always encodes
	fmt.Fprintf(out, "env %s\n", envLine)

	var rep *report
	if cfg.trace {
		rep, err = traced(cfg, w)
	} else {
		rep, err = endToEnd(cfg, w)
	}
	if err != nil {
		return nil, err
	}
	printMetrics(out, rep.Metrics, "")
	printMetrics(out, rep.Ungated, " (ungated)")
	fmt.Fprintf(out, "%-36s %14.6f ratio (ungated; %d of %d operations failed)\n", "error_rate",
		float64(rep.Failed)/float64(max(rep.Attempted, 1)), rep.Failed, rep.Attempted)
	return rep, nil
}

func printMetrics(out *os.File, ms map[string]metric, note string) {
	names := make([]string, 0, len(ms))
	for name := range ms {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		fmt.Fprintf(out, "%-36s %14.6f %s%s\n", name, ms[name].Value, ms[name].Unit, note)
	}
}
