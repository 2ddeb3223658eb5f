package experiments

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/eval"
	"repro/internal/fda"
	"repro/internal/geometry"
	"repro/internal/iforest"
	"repro/internal/lof"
	"repro/internal/stats"
)

// AblationOptions configures the ablation experiments.
type AblationOptions struct {
	// Repetitions per condition; 0 means 20.
	Repetitions int
	// Seed drives data generation and splits.
	Seed int64
	// Parallel bounds the worker pool; 0 means GOMAXPROCS.
	Parallel int
}

func (o AblationOptions) reps() int {
	if o.Repetitions == 0 {
		return 20
	}
	return o.Repetitions
}

// MappingAblationRow is one (outlier class, mapping) cell of the
// mapping-function ablation.
type MappingAblationRow struct {
	Class   dataset.OutlierClass
	Mapping string
	MeanAUC float64
	StdAUC  float64
}

// ablationMappings are the mapping functions compared in the ablation.
func ablationMappings() []geometry.Mapping {
	return []geometry.Mapping{
		geometry.Raw{},
		geometry.Speed{},
		geometry.Curvature{},
		geometry.LogCurvature{},
		// Signed curvature distinguishes loop orientation, which the
		// unsigned κ of Eq. 5 cannot: an abnormal-correlation outlier that
		// traces the inlier loop backwards has an identical unsigned
		// curvature profile.
		geometry.SignedCurvature{},
		geometry.Stack{geometry.Curvature{}, geometry.Speed{}},
	}
}

// RunMappingAblation scores iFor over each mapping function on each
// taxonomy outlier class at contamination 0.1 — the experiment behind the
// design claim that the curvature aggregation, not the detector, carries
// the mixed-type sensitivity.
func RunMappingAblation(opt AblationOptions) ([]MappingAblationRow, error) {
	return runMappingAblationForClasses(opt, dataset.OutlierClasses())
}

// runMappingAblationForClasses is RunMappingAblation restricted to the
// given classes (tests use a single class).
func runMappingAblationForClasses(opt AblationOptions, classes []dataset.OutlierClass) ([]MappingAblationRow, error) {
	var rows []MappingAblationRow
	for _, class := range classes {
		d, err := dataset.Taxonomy(dataset.TaxonomyOptions{Class: class, Seed: opt.Seed})
		if err != nil {
			return nil, err
		}
		var methods []eval.Method
		for _, m := range ablationMappings() {
			mapping := m
			methods = append(methods, core.PipelineMethod{
				MethodName: mapping.Name(),
				Build: func(seed int64) (*core.Pipeline, error) {
					return &core.Pipeline{
						Mapping:      mapping,
						DetectorSpec: iforest.New(iforest.Options{Trees: 300, SampleSize: 64, Seed: seed}),
						Standardize:  true,
					}, nil
				},
			})
		}
		conds := []eval.Condition{{Contamination: 0.1, TrainSize: d.Len() / 2}}
		sums, err := eval.RunExperiment(d, methods, conds, eval.ExperimentOptions{
			Repetitions: opt.reps(), Seed: opt.Seed, Parallel: opt.Parallel,
		})
		if err != nil {
			return nil, fmt.Errorf("experiments: mapping ablation class %s: %w", class, err)
		}
		for _, s := range sums {
			rows = append(rows, MappingAblationRow{Class: class, Mapping: s.Method, MeanAUC: s.MeanAUC, StdAUC: s.StdAUC})
		}
	}
	return rows, nil
}

// FormatMappingAblation renders the mapping ablation as a table.
func FormatMappingAblation(rows []MappingAblationRow) string {
	out := fmt.Sprintf("%-22s %-24s %10s %10s\n", "outlierClass", "mapping", "meanAUC", "stdAUC")
	for _, r := range rows {
		out += fmt.Sprintf("%-22s %-24s %10.4f %10.4f\n", r.Class, r.Mapping, r.MeanAUC, r.StdAUC)
	}
	return out
}

// BasisAblationRow is one (basis size, λ) cell of the smoothing
// sensitivity study.
type BasisAblationRow struct {
	Dim     int
	Lambda  float64
	MeanAUC float64
	StdAUC  float64
}

// RunBasisAblation fixes the smoother's basis size and penalty instead of
// cross-validating them and measures the effect on iFor(Curvmap) AUC at
// c = 0.1, quantifying how much the LOOCV selection of Sec. 2.2 matters.
func RunBasisAblation(opt AblationOptions) ([]BasisAblationRow, error) {
	d, err := Fig3Dataset(0, opt.Seed)
	if err != nil {
		return nil, err
	}
	dims := []int{6, 10, 16, 24, 32}
	lambdas := []float64{0, 1e-6, 1e-4, 1e-2}
	var methods []eval.Method
	type cell struct {
		dim    int
		lambda float64
	}
	var cells []cell
	for _, dim := range dims {
		for _, lambda := range lambdas {
			dim, lambda := dim, lambda
			cells = append(cells, cell{dim, lambda})
			methods = append(methods, core.PipelineMethod{
				MethodName: fmt.Sprintf("L=%d,lambda=%g", dim, lambda),
				Build: func(seed int64) (*core.Pipeline, error) {
					return &core.Pipeline{
						Smooth:       fda.Options{Dims: []int{dim}, Lambdas: []float64{lambda}},
						Mapping:      geometry.Curvature{},
						DetectorSpec: iforest.New(iforest.Options{Trees: 300, SampleSize: 64, Seed: seed}),
						Standardize:  true,
					}, nil
				},
			})
		}
	}
	conds := []eval.Condition{{Contamination: 0.1, TrainSize: d.Len() / 2}}
	sums, err := eval.RunExperiment(d, methods, conds, eval.ExperimentOptions{
		Repetitions: opt.reps(), Seed: opt.Seed, Parallel: opt.Parallel,
	})
	if err != nil {
		return nil, fmt.Errorf("experiments: basis ablation: %w", err)
	}
	rows := make([]BasisAblationRow, len(sums))
	for i, s := range sums {
		rows[i] = BasisAblationRow{Dim: cells[i].dim, Lambda: cells[i].lambda, MeanAUC: s.MeanAUC, StdAUC: s.StdAUC}
	}
	return rows, nil
}

// FormatBasisAblation renders the smoothing sensitivity study.
func FormatBasisAblation(rows []BasisAblationRow) string {
	out := fmt.Sprintf("%-6s %-10s %10s %10s\n", "L", "lambda", "meanAUC", "stdAUC")
	for _, r := range rows {
		out += fmt.Sprintf("%-6d %-10g %10.4f %10.4f\n", r.Dim, r.Lambda, r.MeanAUC, r.StdAUC)
	}
	return out
}

// DetectorAblationMethods returns Curvmap pipelines terminated by each
// available detector, for the detector ablation across contaminations.
func DetectorAblationMethods() []eval.Method {
	return []eval.Method{
		core.PipelineMethod{
			MethodName: "iFor(Curvmap)",
			Build: func(seed int64) (*core.Pipeline, error) {
				return CurvmapPipeline(iforest.New(iforest.Options{Trees: 300, SampleSize: 64, Seed: seed})), nil
			},
		},
		core.PipelineMethod{
			MethodName: "OCSVM(Curvmap)",
			Build: func(seed int64) (*core.Pipeline, error) {
				return CurvmapPipeline(core.TunedOCSVM{Seed: seed}), nil
			},
		},
		core.PipelineMethod{
			MethodName: "LOF(Curvmap)",
			Build: func(seed int64) (*core.Pipeline, error) {
				return CurvmapPipeline(lof.Options{}), nil
			},
		},
		core.PipelineMethod{
			MethodName: "kNN(Curvmap)",
			Build: func(seed int64) (*core.Pipeline, error) {
				return CurvmapPipeline(lof.KNN{}), nil
			},
		},
	}
}

// RunDetectorAblation compares the detectors on the curvature features
// across all Fig. 3 contamination levels.
func RunDetectorAblation(opt AblationOptions) ([]eval.Summary, error) {
	d, err := Fig3Dataset(0, opt.Seed)
	if err != nil {
		return nil, err
	}
	conds := make([]eval.Condition, len(Fig3Contaminations))
	for i, c := range Fig3Contaminations {
		conds[i] = eval.Condition{Contamination: c, TrainSize: d.Len() / 2}
	}
	return eval.RunExperiment(d, DetectorAblationMethods(), conds, eval.ExperimentOptions{
		Repetitions: opt.reps(), Seed: opt.Seed, Parallel: opt.Parallel,
	})
}

// EnsembleResult compares the Sec. 5 class-specialised ensemble with a
// single model on a mixed-class outlier population.
type EnsembleResult struct {
	SingleAUC   float64
	EnsembleAUC float64
	// MemberAUC is each specialised member's own AUC on the mixed test
	// set, keyed by the class it was specialised on.
	MemberAUC map[string]float64
}

// RunEnsemble implements the future-work protocol sketched in Sec. 5:
// one pipeline per outlier class, each trained on a contaminated set
// containing only that class, averaged by rank into an ensemble, and
// compared against a single pipeline trained on the mixture.
func RunEnsemble(opt AblationOptions) (EnsembleResult, error) {
	classes := []dataset.OutlierClass{
		dataset.IsolatedMagnitude, dataset.PersistentShape, dataset.AbnormalCorrelation,
	}
	// Per-class training sets (contaminated with a single class each).
	trainSets := make([]fda.Dataset, len(classes))
	members := make([]*core.Pipeline, len(classes))
	names := make([]string, len(classes))
	for i, class := range classes {
		d, err := dataset.Taxonomy(dataset.TaxonomyOptions{
			N: 80, Class: class, OutlierFraction: 0.1, Seed: stats.SplitSeed(opt.Seed, i),
		})
		if err != nil {
			return EnsembleResult{}, err
		}
		trainSets[i] = d
		members[i] = CurvmapPipeline(iforest.New(iforest.Options{Seed: stats.SplitSeed(opt.Seed, 100+i)}))
		names[i] = class.String()
	}
	// Mixed test set: fresh samples from every class.
	var test fda.Dataset
	for i, class := range classes {
		d, err := dataset.Taxonomy(dataset.TaxonomyOptions{
			N: 60, Class: class, OutlierFraction: 0.15, Seed: stats.SplitSeed(opt.Seed, 1000+i),
		})
		if err != nil {
			return EnsembleResult{}, err
		}
		test.Samples = append(test.Samples, d.Samples...)
		test.Labels = append(test.Labels, d.Labels...)
	}
	ens := &core.Ensemble{Members: members, MemberNames: names}
	if err := ens.Fit(trainSets); err != nil {
		return EnsembleResult{}, err
	}
	combined, perMember, err := ens.Score(test)
	if err != nil {
		return EnsembleResult{}, err
	}
	res := EnsembleResult{MemberAUC: make(map[string]float64, len(classes))}
	if res.EnsembleAUC, err = eval.AUC(combined, test.Labels); err != nil {
		return EnsembleResult{}, err
	}
	for i, scores := range perMember {
		auc, err := eval.AUC(scores, test.Labels)
		if err != nil {
			return EnsembleResult{}, err
		}
		res.MemberAUC[names[i]] = auc
	}
	// Single model trained on the pooled training mixture.
	var pooled fda.Dataset
	for _, d := range trainSets {
		pooled.Samples = append(pooled.Samples, d.Samples...)
		pooled.Labels = append(pooled.Labels, d.Labels...)
	}
	single := CurvmapPipeline(iforest.New(iforest.Options{Seed: stats.SplitSeed(opt.Seed, 2000)}))
	if err := single.Fit(pooled); err != nil {
		return EnsembleResult{}, err
	}
	scores, err := single.Score(test)
	if err != nil {
		return EnsembleResult{}, err
	}
	if res.SingleAUC, err = eval.AUC(scores, test.Labels); err != nil {
		return EnsembleResult{}, err
	}
	return res, nil
}

// FormatEnsemble renders the ensemble comparison.
func FormatEnsemble(r EnsembleResult) string {
	out := "Sec.5 future-work ensemble vs single model (mixed-class outliers)\n"
	out += fmt.Sprintf("%-32s %10.4f\n", "single iFor(Curvmap) AUC", r.SingleAUC)
	out += fmt.Sprintf("%-32s %10.4f\n", "class-specialised ensemble AUC", r.EnsembleAUC)
	for name, auc := range r.MemberAUC {
		out += fmt.Sprintf("  member %-24s %10.4f\n", name, auc)
	}
	return out
}
