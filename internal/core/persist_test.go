package core

import (
	"bytes"
	"encoding/json"
	"errors"
	"strings"
	"testing"

	"repro/internal/bspline"
	"repro/internal/fda"
	"repro/internal/geometry"
	"repro/internal/iforest"
	"repro/internal/ocsvm"
)

func TestPipelineSaveLoadRoundTrip(t *testing.T) {
	d := smallECG(t, 40, 11)
	p := &Pipeline{
		Smooth:      fda.Options{Dims: []int{10}, Lambdas: []float64{1e-6}},
		Mapping:     geometry.LogCurvature{Shift: 1e-5},
		Detector:    iforest.New(iforest.Options{Trees: 40, Seed: 11}),
		Standardize: true,
	}
	if err := p.Fit(d); err != nil {
		t.Fatal(err)
	}
	want, err := p.Score(d)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := p.SaveJSON(&buf); err != nil {
		t.Fatal(err)
	}
	restored, err := LoadPipelineJSON(&buf)
	if err != nil {
		t.Fatal(err)
	}
	got, err := restored.Score(d)
	if err != nil {
		t.Fatal(err)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("score[%d] = %g after round-trip, want %g", i, got[i], want[i])
		}
	}
	// The restored mapping keeps its parameters.
	if lc, ok := restored.Mapping.(geometry.LogCurvature); !ok || lc.Shift != 1e-5 {
		t.Fatalf("mapping parameters lost: %+v", restored.Mapping)
	}
}

func TestPipelineSaveLoadWithOCSVMAndStack(t *testing.T) {
	d := smallECG(t, 30, 12)
	det := ocsvm.New(ocsvm.Options{Nu: 0.2})
	p := &Pipeline{
		Smooth:      fda.Options{Dims: []int{10}, Lambdas: []float64{1e-6}},
		Mapping:     geometry.Stack{geometry.Curvature{Max: 50}, geometry.Speed{}},
		Detector:    det,
		Standardize: true,
	}
	if err := p.Fit(d); err != nil {
		t.Fatal(err)
	}
	want, err := p.Score(d)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := p.SaveJSON(&buf); err != nil {
		t.Fatal(err)
	}
	restored, err := LoadPipelineJSON(&buf)
	if err != nil {
		t.Fatal(err)
	}
	st, ok := restored.Mapping.(geometry.Stack)
	if !ok || len(st) != 2 {
		t.Fatalf("stack mapping lost: %+v", restored.Mapping)
	}
	if c, ok := st[0].(geometry.Curvature); !ok || c.Max != 50 {
		t.Fatalf("stack member parameters lost: %+v", st[0])
	}
	got, err := restored.Score(d)
	if err != nil {
		t.Fatal(err)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("score[%d] differs after round-trip", i)
		}
	}
}

func TestPipelineSaveErrors(t *testing.T) {
	d := smallECG(t, 20, 13)
	unfitted := quickPipeline(1)
	var buf bytes.Buffer
	if err := unfitted.SaveJSON(&buf); !errors.Is(err, ErrPipeline) {
		t.Fatal("saving unfitted pipeline must fail")
	}
	// Custom basis factory is not serializable.
	custom := &Pipeline{
		Smooth: fda.Options{
			Dims:    []int{9},
			Lambdas: []float64{0},
			Basis: func(dim int, lo, hi float64) (bspline.Basis, error) {
				if dim%2 == 0 {
					dim++
				}
				return bspline.NewFourier(dim, lo, hi)
			},
		},
		Mapping:     geometry.LogCurvature{},
		Detector:    iforest.New(iforest.Options{Seed: 1}),
		Standardize: true,
	}
	if err := custom.Fit(d); err != nil {
		t.Fatal(err)
	}
	if err := custom.SaveJSON(&buf); !errors.Is(err, ErrPipeline) {
		t.Fatal("custom basis factory must refuse to serialize")
	}
	// Non-serializable detector.
	tuned := &Pipeline{
		Smooth:      fda.Options{Dims: []int{10}, Lambdas: []float64{1e-6}},
		Mapping:     geometry.LogCurvature{},
		Detector:    &TunedOCSVM{Candidates: []float64{0.2}, Folds: 3},
		Standardize: true,
	}
	if err := tuned.Fit(d); err != nil {
		t.Fatal(err)
	}
	if err := tuned.SaveJSON(&buf); !errors.Is(err, ErrPipeline) {
		t.Fatal("non-serializable detector must fail")
	}
}

func TestLoadPipelineJSONErrors(t *testing.T) {
	if _, err := LoadPipelineJSON(bytes.NewBufferString("{")); err == nil {
		t.Fatal("truncated json must fail")
	}
	if _, err := LoadPipelineJSON(bytes.NewBufferString(`{"grid":[]}`)); !errors.Is(err, ErrPipeline) {
		t.Fatal("missing grid must fail")
	}
	blob := `{"grid":[0,1],"mapping":{"name":"bogus"},"detector":{"name":"ifor","model":{}}}`
	if _, err := LoadPipelineJSON(bytes.NewBufferString(blob)); !errors.Is(err, ErrPipeline) {
		t.Fatal("unknown mapping must fail")
	}
	blob = `{"grid":[0,1],"mapping":{"name":"speed"},"detector":{"name":"bogus","model":{}}}`
	if _, err := LoadPipelineJSON(bytes.NewBufferString(blob)); !errors.Is(err, ErrPipeline) {
		t.Fatal("unknown detector must fail")
	}
}

func TestPipelineVersioning(t *testing.T) {
	d := smallECG(t, 20, 14)
	p := quickPipeline(14)
	if err := p.Fit(d); err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := p.SaveJSON(&buf); err != nil {
		t.Fatal(err)
	}
	var raw map[string]any
	if err := json.Unmarshal(buf.Bytes(), &raw); err != nil {
		t.Fatal(err)
	}
	if v, ok := raw["version"].(float64); !ok || int(v) != pipelineVersion {
		t.Fatalf("saved blob has version %v, want %d", raw["version"], pipelineVersion)
	}
	// A version-absent (v0) blob still loads: strip the field and re-read.
	delete(raw, "version")
	v0, err := json.Marshal(raw)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := LoadPipelineJSON(bytes.NewReader(v0)); err != nil {
		t.Fatalf("v0 blob must keep loading: %v", err)
	}
	// A blob from the future is rejected with a clear error.
	raw["version"] = pipelineVersion + 1
	future, err := json.Marshal(raw)
	if err != nil {
		t.Fatal(err)
	}
	_, err = LoadPipelineJSON(bytes.NewReader(future))
	if !errors.Is(err, ErrPipeline) {
		t.Fatalf("future version must fail with ErrPipeline, got %v", err)
	}
	if !strings.Contains(err.Error(), "version") {
		t.Fatalf("error should name the version mismatch, got %v", err)
	}
	// Negative versions are malformed.
	raw["version"] = -1
	bad, _ := json.Marshal(raw)
	if _, err := LoadPipelineJSON(bytes.NewReader(bad)); !errors.Is(err, ErrPipeline) {
		t.Fatal("negative version must fail")
	}
}

// TestLoadPipelineJSONRejectsBadForestSplit: a saved iFor model whose
// split names a feature the model does not have fails at load with the
// detector's typed error, instead of loading and then panicking on
// every score.
func TestLoadPipelineJSONRejectsBadForestSplit(t *testing.T) {
	p := quickPipeline(15)
	if err := p.Fit(smallECG(t, 20, 15)); err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := p.SaveJSON(&buf); err != nil {
		t.Fatal(err)
	}
	var raw map[string]any
	if err := json.Unmarshal(buf.Bytes(), &raw); err != nil {
		t.Fatal(err)
	}
	model := raw["detector"].(map[string]any)["model"].(map[string]any)
	root := model["trees"].([]any)[0].(map[string]any)
	if _, ok := root["left"]; !ok {
		t.Fatal("fixture forest's first tree is a single leaf")
	}
	root["attr"] = model["dim"]
	bad, err := json.Marshal(raw)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := LoadPipelineJSON(bytes.NewReader(bad)); !errors.Is(err, iforest.ErrNotFitted) {
		t.Fatalf("err = %v, want iforest.ErrNotFitted", err)
	}
}
