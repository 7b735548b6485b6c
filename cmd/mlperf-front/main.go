// Command mlperf-front runs the multi-process serving front tier: one
// HTTP endpoint fanning requests across N mlperf-serve backends that
// share a single -cache-dir content-addressed cache.
//
//	mlperf-front -backends http://127.0.0.1:8081,http://127.0.0.1:8082
//	mlperf-front -addr :8080 -backends ... -health-interval 250ms
//
// Cells are placed on backends by their content digest (FNV-1a-64 of
// the digest modulo the -backends list, which is fixed for the
// process's life), so repeated and concurrent queries for the same cell
// always hit the same backend's hot memory tier, where concurrent
// misses share one simulation. Grid sweeps
// (unary /v1/sweep and streaming /v1/sweep/stream) are digest-
// partitioned across all healthy backends and merged back into global
// cell order — byte-identical to a single process running the grid.
// /v1/simulate goes to its cell's owner; any other path is a 404.
// Cells a backend answered completely stay in the front's bounded cell
// cache, and a repeat is answered there without a backend hop.
//
// A health loop polls each backend's /readyz; draining or dead
// backends drop out of routing, and an attempt that hits a connection
// error or drain 503 fails over to the next healthy backend.
//
// The daemon shell (internal/telecli) owns -addr, -drain-timeout and
// -flight-dump, as for mlperf-serve: on SIGTERM/SIGINT the front stops
// accepting and gives in-flight requests -drain-timeout to finish; a
// handler panic is a 500 for that request alone; -flight-dump writes
// the flight ring on such a panic, on SIGQUIT and at the end of a
// drain.
package main

import (
	"os"

	"mlperf/internal/front"
)

func main() { os.Exit(front.Main(os.Args[1:])) }
