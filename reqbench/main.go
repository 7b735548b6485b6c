// Command reqbench measures the serving request path end to end —
// client → front tier → two serve backends → sweep engine → CAS disk
// tier → simulator — under two open-loop traffic mixes, and attributes
// each request's time to those layers from the spans the front and the
// backends record for it (see README.md).
//
// run.sh builds and runs it from the repository root:
//
//	bash reqbench/run.sh --workload serve_mix --seed 1 --seconds 40 --trace 0
//
// The last line of standard output is one JSON object with the keys
// correct, attempted, failed and metrics. With --trace 0 the metrics
// are the end-to-end ones; with --trace 1 they are the per-layer ones.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"sort"
	"strings"
)

// metric is one reported value with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the benchmark's one-line verdict.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// options are the command-line settings of one run.
type options struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
}

// workdir holds each run's cache directories, under the build directory
// run.sh uses; runs start from the repository root.
const workdir = ".bench_build/reqbench"

func main() { os.Exit(run()) }

func run() int {
	fs := flag.NewFlagSet("reqbench", flag.ContinueOnError)
	var o options
	var trace int
	fs.StringVar(&o.workload, "workload", "", "workload to run: "+strings.Join(workloadNames(), ", "))
	fs.Int64Var(&o.seed, "seed", 1, "seed the workload's inputs are drawn from")
	fs.Float64Var(&o.seconds, "seconds", 40, "length of the measured window in seconds")
	fs.IntVar(&trace, "trace", 0, "1 = join the layers' spans and report per-layer metrics")
	if err := fs.Parse(os.Args[1:]); err != nil {
		return 2
	}
	if _, ok := workloads[o.workload]; !ok {
		fmt.Fprintf(os.Stderr, "reqbench: unknown workload %q (have %s)\n", o.workload, strings.Join(workloadNames(), ", "))
		return 2
	}
	if o.seconds <= 0 || (trace != 0 && trace != 1) {
		fmt.Fprintln(os.Stderr, "reqbench: want --seconds > 0 and --trace 0 or 1")
		return 2
	}
	o.trace = trace == 1

	res, err := bench(o)
	if err != nil {
		fmt.Fprintln(os.Stderr, "reqbench:", err)
		return 1
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "reqbench:", err)
		return 1
	}
	fmt.Println(string(line))
	return 0
}

func workloadNames() []string {
	names := make([]string, 0, len(workloads))
	for n := range workloads {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}
