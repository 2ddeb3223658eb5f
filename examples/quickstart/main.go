// Quickstart: the paper's method in ~40 lines.
//
// Generate a small bivariate functional dataset, build the pipeline
// (penalized B-spline smoothing → curvature mapping → Isolation Forest),
// fit it unsupervised, and rank the samples by outlyingness.
//
// Run with:
//
//	go run ./examples/quickstart
package main

import (
	"fmt"
	"log"
	"sort"

	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/geometry"
	"repro/internal/iforest"
)

func main() {
	// 21 bivariate curves: 20 noisy circles and one figure-eight — the
	// shape-persistent outlier of the paper's Fig. 1. No labels are used
	// for fitting; they only annotate the output.
	data := dataset.Figure1(dataset.Figure1Options{Seed: 42})

	pipeline := &core.Pipeline{
		Mapping:      geometry.Curvature{},                  // Eq. 5 of the paper
		DetectorSpec: iforest.New(iforest.Options{Seed: 1}), // Liu et al. 2008
		Standardize:  true,
	}
	if err := pipeline.Fit(data); err != nil {
		log.Fatal(err)
	}
	scores, err := pipeline.Score(data)
	if err != nil {
		log.Fatal(err)
	}

	idx := make([]int, len(scores))
	for i := range idx {
		idx[i] = i
	}
	sort.Slice(idx, func(a, b int) bool { return scores[idx[a]] > scores[idx[b]] })

	fmt.Println("samples ranked by curvature-based outlyingness:")
	for rank, i := range idx {
		marker := ""
		if data.Labels[i] == 1 {
			marker = "  <- the planted shape outlier"
		}
		fmt.Printf("%2d. sample %2d  score %.4f%s\n", rank+1, i, scores[i], marker)
	}
}
