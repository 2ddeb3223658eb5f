// Package detector declares the two halves of a multivariate outlier
// detector, the stage that ends the paper's pipeline (Sec. 4.2): a Spec
// holds the detector's settings and trains, and the Model its Fit
// returns holds what training learned and scores. A Spec has no score
// method and a Model has no Fit, so a model cannot score before it is
// trained or be trained again. The package imports nothing, so the
// detector packages and internal/core, which imports some of them to
// save their models, can all share it.
package detector

// Model is a fitted detector. Its methods only read it, so one Model
// may score from many goroutines at once.
type Model interface {
	// Name identifies the detector in reports.
	Name() string
	// ScoreBatch returns one outlyingness score per row of x; higher
	// means more outlying.
	ScoreBatch(x [][]float64) ([]float64, error)
}

// Spec configures a detector. Fit trains a new Model on feature vectors
// (n × d, no labels) and leaves the Spec as it was.
type Spec interface {
	Fit(x [][]float64) (Model, error)
}
