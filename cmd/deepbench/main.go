// Command deepbench runs the real, executing kernel benchmarks on the
// host CPU, DeepBench-style: dense GEMM, convolution, recurrent cells,
// and the ring all-reduce — printing achieved GFLOPS / bandwidth per
// configuration, like gemm_bench / conv_bench / rnn_bench /
// nccl_single_all_reduce do on a GPU.
package main

import (
	"flag"
	"fmt"
	"math/rand"
	"os"
	"strconv"
	"time"

	"mlperf/internal/kernels"
	"mlperf/internal/telecli"
	"mlperf/internal/telemetry"
	"mlperf/internal/tensor"
)

// reg holds the active telemetry registry (nil when -metrics/-manifest
// are unset; every record call is then a no-op).
var reg *telemetry.Registry

// record publishes one configuration's achieved rate.
func record(bench, config string, rate float64) {
	reg.Gauge("deepbench_rate", telemetry.L("bench", bench), telemetry.L("config", config)).Set(rate)
	reg.Counter("deepbench_configs_total", telemetry.L("bench", bench)).Inc()
}

func main() {
	reps := flag.Int("reps", 3, "repetitions per configuration")
	sink := telecli.Register("deepbench", nil)
	flag.Parse()
	os.Exit(sink.Run(nil, func() error {
		reg = sink.Reg
		sink.Config("reps", strconv.Itoa(*reps))
		fmt.Println("deepbench (host-CPU substrate) — see DESIGN.md for the substitution rationale")
		gemmBench(*reps)
		convBench(*reps)
		rnnBench(*reps)
		allReduceBench(*reps)
		return nil
	}))
}

func gemmBench(reps int) {
	fmt.Println("\ngemm_bench:")
	fmt.Printf("  %-22s %12s %10s\n", "m x n x k", "time/call", "GFLOPS")
	rng := rand.New(rand.NewSource(1))
	for _, s := range []struct{ m, n, k int }{
		{256, 16, 256}, {512, 32, 512}, {1024, 64, 1024}, {1760, 16, 1760},
	} {
		a := tensor.Randn(rng, s.m, s.k)
		b := tensor.Randn(rng, s.k, s.n)
		out := tensor.New(s.m, s.n)
		start := time.Now()
		for r := 0; r < reps; r++ {
			kernels.GEMMInto(out, a, b)
		}
		per := time.Since(start) / time.Duration(reps)
		gflops := float64(kernels.GEMMFLOPs(s.m, s.n, s.k)) / per.Seconds() / 1e9
		cfg := fmt.Sprintf("%dx%dx%d", s.m, s.n, s.k)
		record("gemm", cfg, gflops)
		fmt.Printf("  %-22s %12v %10.2f\n", cfg, per.Round(time.Microsecond), gflops)
	}
}

func convBench(reps int) {
	fmt.Println("\nconv_bench:")
	fmt.Printf("  %-22s %12s %10s\n", "config", "time/call", "GFLOPS")
	rng := rand.New(rand.NewSource(2))
	for _, c := range []struct {
		name string
		spec kernels.ConvSpec
	}{
		{"speech 5x5/2", kernels.ConvSpec{Batch: 1, InChannels: 1, InH: 350, InW: 80, OutChans: 32,
			KernelH: 5, KernelW: 5, StrideH: 2, StrideW: 2}},
		{"vision 3x3", kernels.ConvSpec{Batch: 1, InChannels: 32, InH: 56, InW: 56, OutChans: 64,
			KernelH: 3, KernelW: 3, StrideH: 1, StrideW: 1, PadH: 1, PadW: 1}},
		{"pointwise 1x1", kernels.ConvSpec{Batch: 1, InChannels: 128, InH: 28, InW: 28, OutChans: 128,
			KernelH: 1, KernelW: 1, StrideH: 1, StrideW: 1}},
	} {
		in := tensor.Randn(rng, c.spec.Batch, c.spec.InChannels, c.spec.InH, c.spec.InW)
		w := tensor.Randn(rng, c.spec.OutChans, c.spec.InChannels, c.spec.KernelH, c.spec.KernelW)
		start := time.Now()
		for r := 0; r < reps; r++ {
			kernels.Conv2D(c.spec, in, w)
		}
		per := time.Since(start) / time.Duration(reps)
		gflops := float64(c.spec.FLOPs()) / per.Seconds() / 1e9
		record("conv", c.name, gflops)
		fmt.Printf("  %-22s %12v %10.2f\n", c.name, per.Round(time.Microsecond), gflops)
	}
}

func rnnBench(reps int) {
	fmt.Println("\nrnn_bench (hidden=256, batch=16, seq=16):")
	fmt.Printf("  %-22s %12s %10s\n", "cell", "time/seq", "GFLOPS")
	rng := rand.New(rand.NewSource(3))
	for _, kind := range []kernels.RNNKind{kernels.VanillaRNN, kernels.GRU, kernels.LSTM} {
		cell := kernels.NewRNNCell(kind, 256, 256)
		xs := make([]*tensor.Tensor, 16)
		for i := range xs {
			xs[i] = tensor.Randn(rng, 16, 256)
		}
		start := time.Now()
		for r := 0; r < reps; r++ {
			cell.RunSequence(xs, 16)
		}
		per := time.Since(start) / time.Duration(reps)
		gflops := float64(cell.StepFLOPs(16)) * 16 / per.Seconds() / 1e9
		record("rnn", fmt.Sprint(kind), gflops)
		fmt.Printf("  %-22s %12v %10.2f\n", kind, per.Round(time.Microsecond), gflops)
	}
}

func allReduceBench(reps int) {
	fmt.Println("\nall_reduce (ring across goroutine ranks, 4 MB fp32 per rank):")
	fmt.Printf("  %-22s %12s %10s\n", "ranks", "time/call", "GB/s")
	const elems = 1 << 20
	for _, ranks := range []int{2, 4, 8} {
		bufs := make([][]float32, ranks)
		for r := range bufs {
			bufs[r] = make([]float32, elems)
			for i := range bufs[r] {
				bufs[r][i] = float32(r + i)
			}
		}
		start := time.Now()
		for r := 0; r < reps; r++ {
			if err := kernels.RingAllReduce(bufs); err != nil {
				panic(err)
			}
		}
		per := time.Since(start) / time.Duration(reps)
		moved := float64(4*elems) * 2 * float64(ranks-1) / float64(ranks) * float64(ranks)
		gbs := moved / per.Seconds() / 1e9
		record("allreduce", strconv.Itoa(ranks)+"ranks", gbs)
		fmt.Printf("  %-22d %12v %10.2f\n", ranks, per.Round(time.Microsecond), gbs)
	}
}
