package core

import (
	"bytes"
	"encoding/json"
	"errors"
	"math"
	"strings"
	"testing"

	"repro/internal/bspline"
	"repro/internal/dataset"
	"repro/internal/detector"
	"repro/internal/fda"
	"repro/internal/geometry"
	"repro/internal/iforest"
	"repro/internal/jsontext"
	"repro/internal/lof"
	"repro/internal/ocsvm"
)

func TestPipelineSaveLoadRoundTrip(t *testing.T) {
	d := smallECG(t, 40, 11)
	p := &Pipeline{
		Smooth:       fda.Options{Dims: []int{10}, Lambdas: []float64{1e-6}},
		Mapping:      geometry.LogCurvature{Shift: 1e-5},
		DetectorSpec: iforest.New(iforest.Options{Trees: 40, Seed: 11}),
		Standardize:  true,
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
	p := &Pipeline{
		Smooth:       fda.Options{Dims: []int{10}, Lambdas: []float64{1e-6}},
		Mapping:      geometry.Stack{geometry.Curvature{Max: 50}, geometry.Speed{}},
		DetectorSpec: ocsvm.Options{Nu: 0.2},
		Standardize:  true,
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

// TestPipelineSaveLoadTunedOCSVM: the paper's OCSVM(Curvmap) pipeline,
// ν tuned by cross-validation, saves its model as an "ocsvm" detector,
// and the reloaded pipeline scores every curve to the same bits.
func TestPipelineSaveLoadTunedOCSVM(t *testing.T) {
	d := smallECG(t, 40, 23)
	p := &Pipeline{
		Smooth:       fda.Options{Dims: []int{10}, Lambdas: []float64{1e-6}},
		Mapping:      geometry.LogCurvature{},
		DetectorSpec: TunedOCSVM{Seed: 23},
		Standardize:  true,
	}
	saved := savedModel(t, p, d)
	if !bytes.Contains(saved, []byte(`"detector":{"name":"ocsvm","model":`)) {
		t.Fatalf("the tuned model is not saved as an ocsvm detector: %.200s", saved)
	}
	want, err := p.Score(d)
	if err != nil {
		t.Fatal(err)
	}
	loaded, err := LoadPipelineJSON(bytes.NewReader(saved))
	if err != nil {
		t.Fatal(err)
	}
	got, err := loaded.Score(d)
	if err != nil {
		t.Fatal(err)
	}
	for i := range want {
		if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
			t.Fatalf("score[%d] = %v after the reload, %v before", i, got[i], want[i])
		}
	}
}

// TestLoadedPipelineCannotRefit: a loaded pipeline holds a fitted
// detector and no spec to train another, so Fit fails with ErrPipeline
// and the pipeline keeps the model it loaded.
func TestLoadedPipelineCannotRefit(t *testing.T) {
	d := smallECG(t, 20, 24)
	saved := savedModel(t, quickPipeline(24), d)
	loaded, err := LoadPipelineJSON(bytes.NewReader(saved))
	if err != nil {
		t.Fatal(err)
	}
	if err := loaded.Fit(d); !errors.Is(err, ErrPipeline) {
		t.Fatalf("Fit on a loaded pipeline: err = %v, want ErrPipeline", err)
	}
	var again bytes.Buffer
	if err := loaded.SaveJSON(&again); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(again.Bytes(), saved) {
		t.Fatal("the failed Fit changed the loaded model")
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
		Mapping:      geometry.LogCurvature{},
		DetectorSpec: iforest.New(iforest.Options{Seed: 1}),
		Standardize:  true,
	}
	if err := custom.Fit(d); err != nil {
		t.Fatal(err)
	}
	if err := custom.SaveJSON(&buf); !errors.Is(err, ErrPipeline) {
		t.Fatal("custom basis factory must refuse to serialize")
	}
	// Non-serializable detector.
	local := &Pipeline{
		Smooth:       fda.Options{Dims: []int{10}, Lambdas: []float64{1e-6}},
		Mapping:      geometry.LogCurvature{},
		DetectorSpec: lof.Options{},
		Standardize:  true,
	}
	if err := local.Fit(d); err != nil {
		t.Fatal(err)
	}
	if err := local.SaveJSON(&buf); !errors.Is(err, ErrPipeline) {
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
	if _, err := LoadPipelineJSON(bytes.NewReader(bad)); !errors.Is(err, iforest.ErrModel) {
		t.Fatalf("err = %v, want iforest.ErrModel", err)
	}
}

// savedModel fits p on d and returns its model file.
func savedModel(t testing.TB, p *Pipeline, d fda.Dataset) []byte {
	t.Helper()
	if err := p.Fit(d); err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := p.SaveJSON(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestLoadPipelineJSONRefusesTrailingData: json.Decoder stopped after
// the first value, so a model file with anything after it loaded as if
// the rest were not there. Anything but whitespace after the document
// now fails the load; SaveJSON's own newline, and more whitespace,
// still load.
func TestLoadPipelineJSONRefusesTrailingData(t *testing.T) {
	saved := savedModel(t, quickPipeline(16), smallECG(t, 20, 16))
	for _, tail := range []string{"", " \t\r\n"} {
		if _, err := LoadPipelineJSON(bytes.NewReader(append(bytes.Clone(saved), tail...))); err != nil {
			t.Fatalf("tail %q: %v", tail, err)
		}
	}
	for _, tail := range []string{`{"version":99} trailing junk`, "x", "{}", "0"} {
		_, err := LoadPipelineJSON(bytes.NewReader(append(bytes.Clone(saved), tail...)))
		if !errors.Is(err, ErrPipeline) || !errors.Is(err, jsontext.ErrTrailing) {
			t.Fatalf("tail %q: err = %v, want ErrPipeline and jsontext.ErrTrailing", tail, err)
		}
		if _, err := loadOracle(append(bytes.Clone(saved), tail...)); err != nil {
			t.Fatalf("tail %q: encoding/json refused it too (%v); the test shows nothing", tail, err)
		}
	}
}

// TestLoadPipelineJSONRefusesOneChildNode: a saved model whose root
// lost its "right" child used to load, with the root read as a leaf,
// and score every training curve differently from the model saved. It
// now fails the load with iforest.ErrModel, as a bad split does.
func TestLoadPipelineJSONRefusesOneChildNode(t *testing.T) {
	d := smallECG(t, 20, 17)
	p := quickPipeline(17)
	saved := savedModel(t, p, d)
	want, err := p.Score(d)
	if err != nil {
		t.Fatal(err)
	}
	var raw map[string]any
	if err := json.Unmarshal(saved, &raw); err != nil {
		t.Fatal(err)
	}
	root := raw["detector"].(map[string]any)["model"].(map[string]any)["trees"].([]any)[0].(map[string]any)
	if _, ok := root["right"]; !ok {
		t.Fatal("fixture forest's first tree is a single leaf")
	}
	delete(root, "right")
	bad, err := json.Marshal(raw)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := LoadPipelineJSON(bytes.NewReader(bad)); !errors.Is(err, iforest.ErrModel) {
		t.Fatalf("err = %v, want iforest.ErrModel", err)
	}
	// What the old decoder made of it: a model the file does not hold.
	old, err := loadOracle(bad)
	if err != nil {
		t.Fatal(err)
	}
	got, err := old.p.Score(d)
	if err != nil {
		t.Fatal(err)
	}
	moved := 0
	for i := range want {
		if got[i] != want[i] {
			moved++
		}
	}
	if old.repaired != 1 || moved == 0 {
		t.Fatalf("the old decoder repaired %d nodes and moved %d of %d scores; the fixture shows nothing", old.repaired, moved, len(want))
	}
	t.Logf("read as a leaf, the root moved %d of %d training scores", moved, len(want))
}

// TestSaveJSONMatchesEncodingJSON: SaveJSON writes, byte for byte, what
// the encoding/json codec wrote for the same pipeline, over both
// detectors, plain and stacked mappings, mappings with parameters,
// Standardize off, and smoothing options away from their defaults,
// whose λ are written in exponent form and whose domain starts below 0.
func TestSaveJSONMatchesEncodingJSON(t *testing.T) {
	d := smallECG(t, 30, 18)
	forest := iforest.New(iforest.Options{Trees: 20, Seed: 18})
	quick := fda.Options{Dims: []int{10}, Lambdas: []float64{1e-6}}
	cases := []struct {
		name string
		p    *Pipeline
	}{
		{"ifor", &Pipeline{Smooth: quick, Mapping: geometry.LogCurvature{}, DetectorSpec: forest, Standardize: true}},
		{"ifor default smoothing", &Pipeline{Mapping: geometry.LogCurvature{Shift: 1e-7}, DetectorSpec: forest, Standardize: true}},
		{"ocsvm", &Pipeline{Smooth: quick, Mapping: geometry.Curvature{Max: 50}, DetectorSpec: ocsvm.Options{Nu: 0.2}, Standardize: true}},
		{"stack", &Pipeline{Smooth: quick, Mapping: geometry.Stack{geometry.Curvature{Max: 50}, geometry.Speed{}}, DetectorSpec: forest, Standardize: true}},
		{"tuned ocsvm", &Pipeline{Smooth: quick, Mapping: geometry.LogCurvature{}, DetectorSpec: TunedOCSVM{Seed: 18}, Standardize: true}},
		{"stack ocsvm", &Pipeline{Smooth: quick, Mapping: geometry.Stack{geometry.NormalizedCurvature{Oversample: 3}, geometry.RadiusOfCurvature{MaxRadius: 2.5e21}}, DetectorSpec: ocsvm.Options{Nu: 0.3}, Standardize: true}},
		{"no standardize", &Pipeline{Smooth: quick, Mapping: geometry.LogCurvature{}, DetectorSpec: forest}},
		{"smoothing options", &Pipeline{
			Smooth: fda.Options{
				Order: 5, Dims: []int{8, 12}, Lambdas: []float64{1e-8, 2.5e-7, 0.125}, PenaltyDeriv: 3,
				Lo: -0.5, Hi: 1.5, Criterion: fda.GCV,
			},
			Mapping: geometry.LogCurvature{}, DetectorSpec: forest, Standardize: true,
		}},
	}
	for _, c := range cases {
		got := savedModel(t, c.p, d)
		want, err := oracleSave(c.p)
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		if !bytes.Equal(got, want) {
			n := 0
			for n < len(got) && n < len(want) && got[n] == want[n] {
				n++
			}
			t.Errorf("%s: SaveJSON differs from encoding/json at byte %d of %d:\n got …%.80s\nwant …%.80s",
				c.name, n, len(want), got[max(n-20, 0):], want[max(n-20, 0):])
		}
	}
	// A value JSON cannot carry fails the save, as encoding/json did,
	// and writes nothing.
	p := &Pipeline{Smooth: quick, Mapping: geometry.LogCurvature{}, DetectorSpec: forest, Standardize: true}
	savedModel(t, p, d)
	p.featScale[0] = math.Inf(1)
	var buf bytes.Buffer
	if err := p.SaveJSON(&buf); !errors.Is(err, ErrPipeline) || buf.Len() != 0 {
		t.Fatalf("err = %v after writing %d bytes, want ErrPipeline and nothing written", err, buf.Len())
	}
	if _, err := oracleSave(p); err == nil {
		t.Fatal("encoding/json saved +Inf; the case shows nothing")
	}
}

// TestLoadPipelineJSONMatchesEncodingJSONOnFig3Model loads the
// benchmark's model — iFor(Curvmap), 300 trees of ψ = 64 with seed 1,
// fit on the 200 Fig. 3 curves (experiments.CurvmapPipeline on
// Fig3Dataset(200, 1), which this package cannot import) — through
// LoadPipelineJSON and through the encoding/json oracle: the two give
// the same nodes and roots, every field bitwise, and the same scores,
// bit for bit, on the 200 training curves.
func TestLoadPipelineJSONMatchesEncodingJSONOnFig3Model(t *testing.T) {
	d, err := dataset.ECGBivariate(dataset.ECGOptions{N: 200, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	p := &Pipeline{
		Mapping:      geometry.LogCurvature{},
		DetectorSpec: iforest.New(iforest.Options{Trees: 300, SampleSize: 64, Seed: 1}),
		Standardize:  true,
	}
	saved := savedModel(t, p, d)
	got, err := LoadPipelineJSON(bytes.NewReader(saved))
	if err != nil {
		t.Fatal(err)
	}
	want, err := loadOracle(saved)
	if err != nil {
		t.Fatal(err)
	}
	if diff := pipelineDiff(got, want); diff != "" {
		t.Fatal(diff)
	}
	gotScores, err := got.Score(d)
	if err != nil {
		t.Fatal(err)
	}
	wantScores, err := want.p.Score(d)
	if err != nil {
		t.Fatal(err)
	}
	for i := range wantScores {
		if math.Float64bits(gotScores[i]) != math.Float64bits(wantScores[i]) {
			t.Fatalf("score[%d] = %v, oracle %v", i, gotScores[i], wantScores[i])
		}
	}
	t.Logf("%d bytes, %d trees, %d nodes, %d scores bitwise equal", len(saved), len(want.forest.roots), len(want.forest.nodes), len(wantScores))
}

// TestLoadPipelineJSONKeepsNoBuffer: a loaded pipeline holds nothing
// of the bytes it was decoded from. Overwriting them after the decode
// does not change the file it saves.
func TestLoadPipelineJSONKeepsNoBuffer(t *testing.T) {
	d := smallECG(t, 20, 20)
	for _, det := range []detector.Spec{iforest.New(iforest.Options{Trees: 10, Seed: 20}), ocsvm.Options{Nu: 0.2}} {
		p := &Pipeline{
			Smooth:       fda.Options{Dims: []int{10}, Lambdas: []float64{1e-6}},
			Mapping:      geometry.Stack{geometry.Curvature{Max: 50}, geometry.LogCurvature{Shift: 1e-5}},
			DetectorSpec: det,
			Standardize:  true,
		}
		saved := savedModel(t, p, d)
		data := bytes.Clone(saved)
		loaded, err := decodePipeline(data)
		if err != nil {
			t.Fatal(err)
		}
		for i := range data {
			data[i] = 'x'
		}
		var again bytes.Buffer
		if err := loaded.SaveJSON(&again); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(again.Bytes(), saved) {
			t.Fatalf("%s: the loaded pipeline changed with the buffer it was read from", loaded.Detector.Name())
		}
	}
}
