// Command perfbench is the repository benchmark: it drives real ART-9
// evaluation jobs through the public art9.New, serve and remote surfaces,
// verifies every returned row against the benchmark's own RV32 reference,
// and prints the end-to-end metrics (or, with --trace 1, the per-layer
// ladder) as one JSON object on the last line of standard output.
//
//	bash perfbench/run.sh --workload paper-suite --seed 1 --seconds 10 --trace 0
//
// Load comes from one process: min(2, NumCPU) clients, each a closed loop
// that submits one job, waits for its row and submits the next — the way
// art9-batch drives an evaluator. The seed generates every input; the same
// seed gives the same jobs, in the same order, on every run.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"sort"
	"time"
)

// metric is one named measurement in the result line.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line of standard output.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

type options struct {
	workload string
	seed     int64
	window   time.Duration
	trace    bool
	outDir   string
}

func main() {
	var o options
	var seconds int
	var trace int
	flag.StringVar(&o.workload, "workload", "", "workload: paper-suite, serve-fresh or cache-mix")
	flag.Int64Var(&o.seed, "seed", 1, "input seed")
	flag.IntVar(&seconds, "seconds", 10, "measured seconds per run")
	flag.IntVar(&trace, "trace", 0, "1: traced run printing the per-layer metrics")
	flag.StringVar(&o.outDir, "out", ".bench_build/perfbench", "directory for the traced run's span file")
	flag.Parse()
	if seconds < 1 || (trace != 0 && trace != 1) {
		fmt.Fprintln(os.Stderr, "perfbench: --seconds must be ≥ 1 and --trace 0 or 1")
		os.Exit(2)
	}
	o.window = time.Duration(seconds) * time.Second
	o.trace = trace == 1

	w, err := workloadByName(o.workload, o.seed)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(2)
	}
	ctx := context.Background()
	var res *result
	if o.trace {
		res, err = runTraced(ctx, w, o)
	} else {
		res, err = runEndToEnd(ctx, w, o)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	names := make([]string, 0, len(res.Metrics))
	for n := range res.Metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	fmt.Fprintf(os.Stderr, "perfbench %s seed=%d clients=%d trace=%v: correct=%v attempted=%d failed=%d\n",
		w.name, o.seed, clients(), o.trace, res.Correct, res.Attempted, res.Failed)
	for _, n := range names {
		fmt.Fprintf(os.Stderr, "  %-34s %14.6g %s\n", n, res.Metrics[n].Value, res.Metrics[n].Unit)
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
}

// clients is the closed-loop client count: no more than the host's CPUs.
func clients() int { return min(2, runtime.NumCPU()) }
