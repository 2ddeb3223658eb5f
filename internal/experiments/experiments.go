// Package experiments wires the repository's modules into the concrete
// experiments of the paper — Fig. 1 (shape-outlier illustration), Fig. 2
// (curvature illustration), Fig. 3 (AUC vs contamination on ECG) — plus
// the ablations registered in DESIGN.md. Both cmd/mfodbench and the
// top-level benchmarks drive experiments through this package so the
// definitions exist exactly once.
package experiments

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/depth"
	"repro/internal/eval"
	"repro/internal/fda"
	"repro/internal/geometry"
	"repro/internal/iforest"
)

// Fig3Contaminations are the training contamination levels of Fig. 3.
var Fig3Contaminations = []float64{0.05, 0.10, 0.15, 0.20, 0.25}

// Fig3Options configures the headline experiment.
type Fig3Options struct {
	// N is the dataset size; 0 means 200 (the ECG200 archive size).
	N int
	// TrainSize is the per-split training-set size; 0 means N/2.
	TrainSize int
	// Repetitions per contamination level; 0 means 50 (the paper's count).
	Repetitions int
	// Contaminations; nil means Fig3Contaminations.
	Contaminations []float64
	// Methods restricts the compared methods by name; nil means all four
	// of Fig. 3.
	Methods []string
	// Seed drives data generation and splits.
	Seed int64
	// Parallel bounds the worker pool; 0 means GOMAXPROCS.
	Parallel int
}

// CurvmapPipeline returns the paper's pipeline with the curvature mapping
// and the given detector. The curvature trace is log-scaled: κ of the
// (x, x²) path spans several orders of magnitude (it diverges at the
// path's stationary points), and the monotone log rescaling conditions the
// feature space without changing which samples are geometrically deviant.
// Standardization is enabled: both detectors benefit from commensurable
// features and OCSVM requires them.
func CurvmapPipeline(det core.Detector) *core.Pipeline {
	return &core.Pipeline{
		Mapping:     geometry.LogCurvature{},
		Detector:    det,
		Standardize: true,
	}
}

// Fig3Methods returns the four methods of Fig. 3 keyed exactly as the
// figure's legend: Dir.out, FUNTA, iFor(Curvmap), OCSVM(Curvmap).
func Fig3Methods() []eval.Method {
	return []eval.Method{
		core.DepthMethod{
			MethodName: "Dir.out",
			Fit: func(seed int64, train [][][]float64) (core.FunctionalScorer, error) {
				return depth.FitDirOut(train, depth.ProjectionOptions{Directions: 50, Seed: seed})
			},
		},
		core.DepthMethod{
			MethodName: "FUNTA",
			Fit: func(seed int64, train [][][]float64) (core.FunctionalScorer, error) {
				return depth.FitFUNTA(train, nil)
			},
		},
		core.PipelineMethod{
			MethodName: "iFor(Curvmap)",
			Build: func(seed int64) (*core.Pipeline, error) {
				return CurvmapPipeline(iforest.New(iforest.Options{Trees: 300, SampleSize: 64, Seed: seed})), nil
			},
		},
		core.PipelineMethod{
			MethodName: "OCSVM(Curvmap)",
			Build: func(seed int64) (*core.Pipeline, error) {
				return CurvmapPipeline(&core.TunedOCSVM{Seed: seed}), nil
			},
		},
	}
}

// filterMethods keeps the methods whose names appear in keep (all when
// keep is empty).
func filterMethods(ms []eval.Method, keep []string) ([]eval.Method, error) {
	if len(keep) == 0 {
		return ms, nil
	}
	byName := make(map[string]eval.Method, len(ms))
	for _, m := range ms {
		byName[m.Name()] = m
	}
	out := make([]eval.Method, 0, len(keep))
	for _, name := range keep {
		m, ok := byName[name]
		if !ok {
			return nil, fmt.Errorf("experiments: unknown method %q", name)
		}
		out = append(out, m)
	}
	return out, nil
}

// Fig3Dataset generates the experiment's data: simulated ECG beats
// augmented to bivariate MFD with the squared series, m = 85 (Sec. 4.1).
func Fig3Dataset(n int, seed int64) (fda.Dataset, error) {
	if n == 0 {
		n = 200
	}
	return dataset.ECGBivariate(dataset.ECGOptions{N: n, Seed: seed})
}

// RunFig3 executes the full protocol of Sec. 4.1 and returns the
// summaries Fig. 3 plots (mean ± std AUC per method per contamination).
func RunFig3(opt Fig3Options) ([]eval.Summary, error) {
	d, err := Fig3Dataset(opt.N, opt.Seed)
	if err != nil {
		return nil, err
	}
	trainSize := opt.TrainSize
	if trainSize == 0 {
		trainSize = d.Len() / 2
	}
	cs := opt.Contaminations
	if cs == nil {
		cs = Fig3Contaminations
	}
	conds := make([]eval.Condition, len(cs))
	for i, c := range cs {
		conds[i] = eval.Condition{Contamination: c, TrainSize: trainSize}
	}
	methods, err := filterMethods(Fig3Methods(), opt.Methods)
	if err != nil {
		return nil, err
	}
	return eval.RunExperiment(d, methods, conds, eval.ExperimentOptions{
		Repetitions: opt.Repetitions,
		Seed:        opt.Seed,
		Parallel:    opt.Parallel,
	})
}
