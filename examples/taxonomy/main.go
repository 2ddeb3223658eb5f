// Taxonomy: walk the functional-outlier taxonomy of Sec. 1.1 (Hubert et
// al. 2015) and show which method catches which class.
//
// For every outlier class — isolated magnitude, isolated shift, persistent
// shape, abnormal correlation, mixed — a dataset is generated whose
// outliers belong to that class only, and the curvature pipeline is
// compared against the FUNTA and Dir.out depth baselines. The pattern
// mirrors the paper's discussion: FUNTA only reacts to shape, Dir.out
// covers magnitude and some shape, and the geometric representation covers
// the classes that hide in the relationship between parameters.
//
// Run with:
//
//	go run ./examples/taxonomy
package main

import (
	"fmt"
	"log"

	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/depth"
	"repro/internal/eval"
	"repro/internal/geometry"
	"repro/internal/iforest"
)

func main() {
	methods := []eval.Method{
		core.PipelineMethod{
			MethodName: "iFor(Curvmap)",
			Build: func(seed int64) (*core.Pipeline, error) {
				return &core.Pipeline{
					Mapping:     geometry.Curvature{},
					Detector:    iforest.New(iforest.Options{Trees: 300, SampleSize: 64, Seed: seed}),
					Standardize: true,
				}, nil
			},
		},
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
	}

	fmt.Printf("%-22s %-16s %s\n", "outlier class", "method", "AUC (5 splits)")
	for _, class := range dataset.OutlierClasses() {
		data, err := dataset.Taxonomy(dataset.TaxonomyOptions{Class: class, Seed: 11})
		if err != nil {
			log.Fatal(err)
		}
		sums, err := eval.RunExperiment(data, methods,
			[]eval.Condition{{Contamination: 0.1, TrainSize: data.Len() / 2}},
			eval.ExperimentOptions{Repetitions: 5, Seed: 11})
		if err != nil {
			log.Fatal(err)
		}
		for _, s := range sums {
			fmt.Printf("%-22s %-16s %.3f ± %.3f\n", class, s.Method, s.MeanAUC, s.StdAUC)
		}
		fmt.Println()
	}
}
