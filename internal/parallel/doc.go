// Package parallel provides the bounded fan-out primitives shared by the
// numeric hot paths (internal/fda smoothing, the internal/core feature
// pass that smooths and maps each sample, the detector and depth score
// loops, the experiment runner) and by the job manager's chunk
// dispatch. It is a lighter sibling of the internal/serve worker pool:
// the same bounded-workers idea, but for finite index spaces where
// results are written back by index, so the output is bitwise identical
// regardless of worker count or scheduling.
//
// For runs fn(worker, i) over an index space; Map runs a function that
// returns a value and an error per index and hands back the results in
// index order, or the lowest-index error and no results.
//
// # Invariants (enforced by mfodlint)
//
// The repo's static-analysis suite (internal/analysis, run by `make
// lint` and CI) checks the contracts this package's callers rely on;
// its diagnostics point here.
//
//   - Goroutines are launched only inside internal/parallel,
//     internal/serve and internal/resilience (poolmisuse). Numeric code
//     fans out through For or Map, which claim indices from a shared
//     atomic counter, re-raise worker panics on the calling goroutine,
//     and write results only by index — hand-rolled goroutines would
//     reintroduce scheduling-dependent output and uncontained panics.
//
//   - FirstError is used only inside internal/parallel (poolmisuse). A
//     fan-out that returns values goes through Map, which checks the
//     errors itself and returns the results only when every call
//     succeeded, so a failed run's partial results are never visible.
//     This is a type rule, not a dataflow check: outside this package
//     there is no result slice to read before the error.
//
//   - Score* and Transform* methods on fitted models are read-only
//     (mutafterfit). For and Map run one fitted model from many
//     goroutines at once with no locks; that is only sound because
//     scoring never writes receiver state after Fit.
//
// FirstError returns the lowest-index non-nil error, matching the error
// a sequential loop over the same work would have surfaced first — the
// determinism contract of the fan-out call sites.
package parallel
