package core

import (
	"fmt"

	"repro/internal/ocsvm"
)

// TunedOCSVM is the spec of a one-class SVM whose ν is selected by
// k-fold cross-validation on the training features — the procedure the
// paper follows ("we tune it on the training set with a 5-fold cross
// validation", Sec. 4.3). Its Fit returns the *ocsvm.Model fitted on all
// features with the selected ν, so a tuned model saves and loads as any
// one-class SVM does.
type TunedOCSVM struct {
	// Candidates are the ν values searched; empty means the TuneNu
	// defaults.
	Candidates []float64
	// Folds is the CV fold count; 0 means 5.
	Folds int
	// Kernel defaults to RBF with GammaScale when nil.
	Kernel ocsvm.Kernel
	// Seed drives the fold assignment.
	Seed int64
}

// Fit implements detector.Spec: tune ν, then fit on all features.
func (t TunedOCSVM) Fit(x [][]float64) (Detector, error) {
	folds := t.Folds
	if folds == 0 {
		folds = 5
	}
	kernel := t.Kernel
	if kernel == nil {
		kernel = ocsvm.RBF{Gamma: ocsvm.GammaScale(x)}
	}
	best, _, err := ocsvm.TuneNu(x, t.Candidates, folds, kernel, t.Seed)
	if err != nil {
		return nil, fmt.Errorf("core: tune nu: %w", err)
	}
	return ocsvm.Options{Nu: best, Kernel: kernel}.Fit(x)
}
