// Command mlperf-models prints the analytically derived quantities of every
// network in the model zoo: forward/training FLOPs per sample, parameter
// counts, gradient (all-reduce) volume, activation footprint, arithmetic
// intensity and operator counts — the raw ingredients behind the paper's
// roofline, scaling and bus-utilization analyses.
package main

import (
	"flag"
	"fmt"
	"os"

	"mlperf/internal/model"
	"mlperf/internal/telecli"
	"mlperf/internal/telemetry"
)

func main() {
	sink := telecli.Register("mlperf-models", nil)
	flag.Parse()
	os.Exit(sink.Run(nil, func() error {
		reg := sink.Reg
		fmt.Printf("%-20s %10s %10s %9s %9s %11s %8s %7s\n",
			"model", "fwd/sample", "train", "params", "grads", "act/sample", "AI", "layers")
		for _, n := range []*model.Network{
			model.ResNet50(), model.ResNet18CIFAR(), model.SSD300(), model.MaskRCNN(),
			model.Transformer(), model.GNMT(), model.NCF(), model.DrQA(),
			model.DeepGEMM(), model.DeepConv(), model.DeepRNN(), model.DeepAllReduce(),
		} {
			fmt.Printf("%-20s %9.2fG %9.2fG %8.1fM %8.0fMB %10.1fMB %8.1f %7d\n",
				n.Name, n.FwdFLOPs().G(), n.TrainFLOPs().G(), float64(n.Params())/1e6,
				n.GradientBytes().MB(), n.ActBytes().MB(), float64(n.Intensity()), len(n.Layers))
			lbl := telemetry.L("model", n.Name)
			reg.Gauge("model_train_gflops_per_sample", lbl).Set(n.TrainFLOPs().G())
			reg.Gauge("model_params_millions", lbl).Set(float64(n.Params()) / 1e6)
			reg.Counter("models_total").Inc()
		}
		return nil
	}))
}
