// Command mlperf-loadgen drives a running mlperf-serve daemon (or an
// mlperf-front over several) with a synthetic open-loop client stream
// and asserts service-level objectives on what came back. Open-loop
// means arrivals follow an exponential clock regardless of server
// backpressure — the only way to genuinely overload a server and
// observe its shedding behaviour.
//
//	mlperf-loadgen -url http://127.0.0.1:8080 -rate 50 -duration 10s
//	mlperf-loadgen -url ... -rate 200 -tenants 4 -hot 0.9 \
//	    -slo-p99 2s -min-shed 0.01 -max-5xx 0
//
// The report and the gate cover only what the client saw: statuses,
// request IDs, answers, stream frames and latency. Every admitted
// answer is checked (internal/loadgen): it must decode as the daemon's
// wire type, and after the load window each delivered record must
// equal a fresh in-process engine's; the report's "answers: N checked,
// M wrong" line counts them. How much work the target shared
// (simulations against requests) is read from the target's own drained
// manifest (-manifest on mlperf-serve or mlperf-front).
//
// The exit status is the SLO verdict: 0 when every asserted bound
// holds, 1 when any is violated — which is what makes it a CI gate. A
// wrong answer, a response without X-Request-Id, a transport error and
// a run that checked no answer always violate it.
package main

import (
	"os"

	"mlperf/internal/loadgen"
)

func main() { os.Exit(loadgen.Main(os.Args[1:])) }
