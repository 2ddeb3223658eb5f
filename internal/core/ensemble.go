package core

import (
	"fmt"

	"repro/internal/fda"
)

// Ensemble implements the future-work proposal of Sec. 5: several
// pipelines, each specialised by training on a set containing a single
// outlier class, combined by averaging rank-normalised scores. The
// per-member scores stay inspectable, so the composition of a detected
// outlier's outlyingness can be read off the member contributions — the
// interpretability goal the paper sketches.
type Ensemble struct {
	// Members are the constituent pipelines, in the order of their
	// training sets.
	Members []*Pipeline
	// MemberNames label the members in reports (e.g. the outlier class
	// each was specialised on); optional.
	MemberNames []string
}

// Fit trains each member on its own training set. trainSets must have one
// dataset per member.
func (e *Ensemble) Fit(trainSets []fda.Dataset) error {
	if len(e.Members) == 0 {
		return fmt.Errorf("core: ensemble has no members: %w", ErrPipeline)
	}
	if len(trainSets) != len(e.Members) {
		return fmt.Errorf("core: %d training sets for %d members: %w", len(trainSets), len(e.Members), ErrPipeline)
	}
	for i, m := range e.Members {
		if err := m.Fit(trainSets[i]); err != nil {
			return fmt.Errorf("core: ensemble member %d: %w", i, err)
		}
	}
	return nil
}

// Score returns the ensemble score of each test sample (the mean of the
// members' rank-normalised scores) along with the per-member normalised
// scores (members × samples) for composition analysis.
func (e *Ensemble) Score(test fda.Dataset) (combined []float64, perMember [][]float64, err error) {
	if len(e.Members) == 0 {
		return nil, nil, fmt.Errorf("core: ensemble has no members: %w", ErrPipeline)
	}
	perMember = make([][]float64, len(e.Members))
	for i, m := range e.Members {
		raw, err := m.Score(test)
		if err != nil {
			return nil, nil, fmt.Errorf("core: ensemble member %d: %w", i, err)
		}
		perMember[i] = RankNormalize(raw)
	}
	n := len(perMember[0])
	combined = make([]float64, n)
	for _, scores := range perMember {
		for j, s := range scores {
			combined[j] += s
		}
	}
	for j := range combined {
		combined[j] /= float64(len(e.Members))
	}
	return combined, perMember, nil
}
