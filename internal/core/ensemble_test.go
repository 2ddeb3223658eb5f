package core

import (
	"errors"
	"testing"

	"repro/internal/dataset"
	"repro/internal/eval"
	"repro/internal/fda"
)

func TestEnsembleFitValidation(t *testing.T) {
	e := &Ensemble{}
	if err := e.Fit(nil); !errors.Is(err, ErrPipeline) {
		t.Fatal("no members must fail")
	}
	e.Members = []*Pipeline{quickPipeline(1)}
	if err := e.Fit([]fda.Dataset{{}, {}}); !errors.Is(err, ErrPipeline) {
		t.Fatal("set/member count mismatch must fail")
	}
	if _, _, err := (&Ensemble{}).Score(fda.Dataset{}); !errors.Is(err, ErrPipeline) {
		t.Fatal("score with no members must fail")
	}
}

func TestEnsembleSharedTraining(t *testing.T) {
	d := smallECG(t, 50, 10)
	e := &Ensemble{Members: []*Pipeline{quickPipeline(1), quickPipeline(2)}}
	if err := e.Fit([]fda.Dataset{d, d}); err != nil {
		t.Fatal(err)
	}
	combined, perMember, err := e.Score(d)
	if err != nil {
		t.Fatal(err)
	}
	if len(combined) != d.Len() || len(perMember) != 2 {
		t.Fatalf("shapes: combined %d, members %d", len(combined), len(perMember))
	}
	for _, v := range combined {
		if v <= 0 || v >= 1 {
			t.Fatalf("combined rank score %g outside (0,1)", v)
		}
	}
	auc, err := eval.AUC(combined, d.Labels)
	if err != nil {
		t.Fatal(err)
	}
	if auc < 0.6 {
		t.Fatalf("ensemble AUC = %g suspiciously low", auc)
	}
}

func TestEnsemblePerClassTraining(t *testing.T) {
	// The Sec. 5 protocol: members specialised on different classes.
	classes := []dataset.OutlierClass{dataset.IsolatedMagnitude, dataset.PersistentShape}
	trainSets := make([]fda.Dataset, len(classes))
	members := make([]*Pipeline, len(classes))
	for i, c := range classes {
		d, err := dataset.Taxonomy(dataset.TaxonomyOptions{N: 30, Points: 40, Class: c, Seed: int64(20 + i)})
		if err != nil {
			t.Fatal(err)
		}
		trainSets[i] = d
		members[i] = quickPipeline(int64(i))
	}
	e := &Ensemble{Members: members, MemberNames: []string{"mag", "shape"}}
	if err := e.Fit(trainSets); err != nil {
		t.Fatal(err)
	}
	test, err := dataset.Taxonomy(dataset.TaxonomyOptions{N: 30, Points: 40, Class: dataset.MixedType, Seed: 99})
	if err != nil {
		t.Fatal(err)
	}
	combined, perMember, err := e.Score(test)
	if err != nil {
		t.Fatal(err)
	}
	if len(combined) != test.Len() {
		t.Fatal("combined length wrong")
	}
	if len(perMember) != 2 {
		t.Fatalf("per-member scores for %d members, want 2", len(perMember))
	}
	for i, scores := range perMember {
		if len(scores) != test.Len() {
			t.Fatalf("member %d scored %d samples, want %d", i, len(scores), test.Len())
		}
	}
}
