// Package repro is a from-scratch Go reproduction of "Outlier detection in
// multivariate functional data based on a geometric aggregation" (Lejeune,
// Mothe, Teste; EDBT 2020).
//
// The library lives under internal/: penalized B-spline smoothing (fda,
// bspline), geometric mapping functions such as the curvature of Eq. 5
// (geometry), the Isolation Forest and one-class SVM detectors (iforest,
// ocsvm), the FUNTA and directional-outlyingness depth baselines (depth),
// the evaluation protocol of Sec. 4 (eval), synthetic workloads (dataset)
// and the assembled pipeline (core). The serve package plus cmd/mfodserve
// turn persisted pipelines into an online HTTP scoring service — model
// registry with atomic hot-reload, bounded worker pool and
// Prometheus-text metrics. See README.md for a tour, DESIGN.md
// for the system inventory and EXPERIMENTS.md for paper-vs-measured
// results. The benchmarks in bench_test.go regenerate every figure of the
// paper's evaluation.
package repro
