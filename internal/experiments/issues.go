package experiments

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/depth"
	"repro/internal/eval"
	"repro/internal/geometry"
	"repro/internal/iforest"
)

// DepthIssueRow is one (outlier class, method) cell of the Sec. 1.2
// demonstration.
type DepthIssueRow struct {
	Class   dataset.OutlierClass
	Method  string
	MeanAUC float64
	StdAUC  float64
}

// depthIssueMethods are the methods whose contrasting behaviour
// substantiates the three issues of Sec. 1.2:
//
//	(1) integral-aggregated pointwise depths under-react to persistent
//	    shape outliers — unless the data is augmented with derivative
//	    channels, the costly work-around;
//	(2) the integral masks isolated outliers, the infimum repairs it;
//	(3) abnormal correlation between parameters defeats marginal depths
//	    (FM, MBD) and is where the geometric representation shines.
func depthIssueMethods() []eval.Method {
	return []eval.Method{
		core.DepthMethod{
			MethodName: "FM",
			Fit: func(seed int64, train [][][]float64) (core.FunctionalScorer, error) {
				return depth.FitFraimanMuniz(train)
			},
		},
		core.DepthMethod{
			MethodName: "MBD",
			Fit: func(seed int64, train [][][]float64) (core.FunctionalScorer, error) {
				return depth.FitBandDepth(train)
			},
		},
		core.DepthMethod{
			MethodName: "MFHD",
			Fit: func(seed int64, train [][][]float64) (core.FunctionalScorer, error) {
				return depth.FitMFHD(train, depth.ProjectionOptions{Directions: 30, Seed: seed})
			},
		},
		core.DepthMethod{
			MethodName: "IntDepth(integral)",
			Fit: func(seed int64, train [][][]float64) (core.FunctionalScorer, error) {
				return depth.FitIntegratedDepth(train, depth.Integral, depth.ProjectionOptions{Directions: 30, Seed: seed})
			},
		},
		core.DepthMethod{
			MethodName: "IntDepth(infimum)",
			Fit: func(seed int64, train [][][]float64) (core.FunctionalScorer, error) {
				return depth.FitIntegratedDepth(train, depth.Infimum, depth.ProjectionOptions{Directions: 30, Seed: seed})
			},
		},
		core.DerivAugmentedDepthMethod{
			MethodName: "IntDepth(integral)+D1D2",
			Orders:     []int{1, 2},
			Fit: func(seed int64, train [][][]float64) (core.FunctionalScorer, error) {
				return depth.FitIntegratedDepth(train, depth.Integral, depth.ProjectionOptions{Directions: 30, Seed: seed})
			},
		},
		core.DepthMethod{
			MethodName: "FUNTA",
			Fit: func(seed int64, train [][][]float64) (core.FunctionalScorer, error) {
				return depth.FitFUNTA(train, nil)
			},
		},
		core.DepthMethod{
			MethodName: "Dir.out",
			Fit: func(seed int64, train [][][]float64) (core.FunctionalScorer, error) {
				return depth.FitDirOut(train, depth.ProjectionOptions{Directions: 30, Seed: seed})
			},
		},
		core.PipelineMethod{
			MethodName: "iFor(Curvmap)",
			Build: func(seed int64) (*core.Pipeline, error) {
				return CurvmapPipeline(iforest.New(iforest.Options{Trees: 300, SampleSize: 64, Seed: seed})), nil
			},
		},
		core.PipelineMethod{
			MethodName: "iFor(Curv+Speed)",
			Build: func(seed int64) (*core.Pipeline, error) {
				return &core.Pipeline{
					Mapping:     geometry.Stack{geometry.LogCurvature{}, geometry.Speed{}},
					Detector:    iforest.New(iforest.Options{Trees: 300, SampleSize: 64, Seed: seed}),
					Standardize: true,
				}, nil
			},
		},
	}
}

// RunDepthIssues evaluates the depth family and the geometric pipeline on
// the three taxonomy classes that exhibit the issues of Sec. 1.2.
func RunDepthIssues(opt AblationOptions) ([]DepthIssueRow, error) {
	return runDepthIssuesForClasses(opt, []dataset.OutlierClass{
		dataset.IsolatedMagnitude, dataset.PersistentShape,
		dataset.HiddenShape, dataset.AbnormalCorrelation,
	})
}

// runDepthIssuesForClasses is RunDepthIssues restricted to the given
// classes (tests use a single class).
func runDepthIssuesForClasses(opt AblationOptions, classes []dataset.OutlierClass) ([]DepthIssueRow, error) {
	var rows []DepthIssueRow
	for _, class := range classes {
		d, err := dataset.Taxonomy(dataset.TaxonomyOptions{Class: class, Seed: opt.Seed})
		if err != nil {
			return nil, err
		}
		conds := []eval.Condition{{Contamination: 0.1, TrainSize: d.Len() / 2}}
		sums, err := eval.RunExperiment(d, depthIssueMethods(), conds, eval.ExperimentOptions{
			Repetitions: opt.reps(), Seed: opt.Seed, Parallel: opt.Parallel,
		})
		if err != nil {
			return nil, fmt.Errorf("experiments: depth issues class %s: %w", class, err)
		}
		for _, s := range sums {
			rows = append(rows, DepthIssueRow{Class: class, Method: s.Method, MeanAUC: s.MeanAUC, StdAUC: s.StdAUC})
		}
	}
	return rows, nil
}

// FormatDepthIssues renders the Sec. 1.2 demonstration as a table.
func FormatDepthIssues(rows []DepthIssueRow) string {
	out := fmt.Sprintf("%-22s %-26s %10s %10s\n", "outlierClass", "method", "meanAUC", "stdAUC")
	for _, r := range rows {
		out += fmt.Sprintf("%-22s %-26s %10.4f %10.4f\n", r.Class, r.Method, r.MeanAUC, r.StdAUC)
	}
	return out
}
