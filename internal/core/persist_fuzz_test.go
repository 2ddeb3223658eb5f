package core

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"strings"
	"testing"

	"repro/internal/dataset"
	"repro/internal/fda"
	"repro/internal/geometry"
	"repro/internal/iforest"
	"repro/internal/jsontext"
	"repro/internal/ocsvm"
)

// loadDisagreement is the differential oracle of the model-file
// loader: "" when LoadPipelineJSON agrees with the encoding/json codec
// on data, else what went wrong. The loader accepts nothing the oracle
// refuses, and what both accept is the same pipeline, field by field
// and every float by its bits. It may refuse what the oracle accepts
// only with a named refusal, each with its typed error and, where the
// oracle can show it, evidence that the document says what the refusal
// names: a null where a value belongs (jsontext.ErrNull), a field given
// twice (jsontext.ErrDuplicate), data after the document
// (jsontext.ErrTrailing, which the oracle never read) and a node with
// one child or a child list of several (iforest.ErrModel, where the
// document holds such a node). A field given twice is the one refusal
// that can surface as another error: the loader reads the first copy,
// which encoding/json drops for the second, and refuses on what is
// wrong with it before it meets the second. Every refusal, named or
// not, must match ErrModelFile.
func loadDisagreement(data []byte) string {
	got, err := LoadPipelineJSON(bytes.NewReader(data))
	want, refErr := loadOracle(data)
	switch {
	case err != nil && !errors.Is(err, ErrModelFile):
		return fmt.Sprintf("refused without ErrModelFile: %v", err)
	case err == nil && refErr != nil:
		return fmt.Sprintf("accepted what encoding/json refuses (%v)", refErr)
	case err == nil:
		return pipelineDiff(got, want)
	case refErr != nil:
		return ""
	}
	ev := scanEvidence(data)
	switch {
	case errors.Is(err, jsontext.ErrNull), errors.Is(err, jsontext.ErrDuplicate), ev.duplicate:
		return ""
	case errors.Is(err, jsontext.ErrTrailing) && errors.Is(err, ErrPipeline) && want.trailing:
		return ""
	case errors.Is(err, iforest.ErrModel) && ev.oneChild:
		return ""
	}
	return fmt.Sprintf("refused what encoding/json accepts, without a named refusal: %v", err)
}

// evidence is what a token walk of a document finds: an object with
// exactly one non-empty "left" or "right" list, or one of them with
// several elements, and an object that gives a key twice (matched as
// encoding/json matches keys, ignoring case).
type evidence struct {
	oneChild, duplicate bool
}

// scanEvidence walks the tokens of the first JSON value in data, so it
// also sees the objects encoding/json drops when a later copy of a key
// replaces them.
func scanEvidence(data []byte) evidence {
	dec := json.NewDecoder(bytes.NewReader(data))
	var ev evidence
	// value reads one value and returns its length if it is an array.
	var value func() int
	value = func() int {
		tok, err := dec.Token()
		if err != nil {
			return 0
		}
		switch tok {
		case json.Delim('{'):
			var lists [2]int
			var keys []string
			for dec.More() {
				tok, _ := dec.Token()
				key, _ := tok.(string)
				for _, k := range keys {
					ev.duplicate = ev.duplicate || strings.EqualFold(k, key)
				}
				keys = append(keys, key)
				n := value()
				if strings.EqualFold(key, "left") {
					lists[0] = n
				} else if strings.EqualFold(key, "right") {
					lists[1] = n
				}
			}
			dec.Token()
			if (lists[0] > 0) != (lists[1] > 0) || lists[0] > 1 || lists[1] > 1 {
				ev.oneChild = true
			}
		case json.Delim('['):
			n := 0
			for ; dec.More(); n++ {
				value()
			}
			dec.Token()
			return n
		}
		return 0
	}
	value()
	return ev
}

// loadSeeds are the fuzzer's seed model files: saved iFor and OCSVM
// pipelines, a stacked mapping, a v0 file (no version), the iFor file
// with its keys re-sorted (the model before the detector's name, the
// trees before dim), and a hand-written forest whose right children
// come before their left ones.
func loadSeeds(tb testing.TB) [][]byte {
	// Small files, so that the fuzzer's mutations and its minimization
	// of each new input stay quick: 8 points and two shallow trees.
	d, err := dataset.ECGBivariate(dataset.ECGOptions{N: 8, Points: 8, Seed: 19})
	if err != nil {
		tb.Fatal(err)
	}
	quick := fda.Options{Dims: []int{6}, Lambdas: []float64{1e-6}}
	var seeds [][]byte
	for _, p := range []*Pipeline{
		{Smooth: quick, Mapping: geometry.LogCurvature{}, DetectorSpec: iforest.New(iforest.Options{Trees: 2, SampleSize: 4, Seed: 19}), Standardize: true},
		{Smooth: quick, Mapping: geometry.Curvature{Max: 50}, DetectorSpec: ocsvm.Options{Nu: 0.5}},
		{Smooth: quick, Mapping: geometry.Stack{geometry.Curvature{Max: 50}, geometry.Speed{}}, DetectorSpec: iforest.New(iforest.Options{Trees: 2, SampleSize: 4, Seed: 19}), Standardize: true},
	} {
		seeds = append(seeds, savedModel(tb, p, d))
	}
	var raw map[string]any
	if err := json.Unmarshal(seeds[0], &raw); err != nil {
		tb.Fatal(err)
	}
	sorted, err := json.Marshal(raw)
	if err != nil {
		tb.Fatal(err)
	}
	delete(raw, "version")
	v0, err := json.Marshal(raw)
	if err != nil {
		tb.Fatal(err)
	}
	rightFirst := `{"grid":[0,1],"mapping":{"name":"speed"},"detector":{"model":{"trees":[{"right":[{"size":2,"adj":1}],` +
		`"left":[{"attr":1,"value":0.5,"right":[{"size":1}],"left":[{"size":1}]}],"attr":0,"value":0.25}],"dim":2,"cPsi":1},"name":"ifor"}}`
	return append(seeds, sorted, v0, []byte(rightFirst))
}

// TestLoadPipelineSeedsAgree runs the differential oracle over the
// fuzzer's seeds and over their named refusals and key orders, so
// `go test` checks what FuzzLoadPipeline starts from.
func TestLoadPipelineSeedsAgree(t *testing.T) {
	seeds := loadSeeds(t)
	for i, seed := range seeds {
		if _, err := LoadPipelineJSON(bytes.NewReader(seed)); err != nil {
			t.Errorf("seed %d: %v", i, err)
		}
	}
	inputs := append(seeds,
		[]byte(`{"grid":[0,1],"mapping":{"name":"speed"},"detector":{"name":"ifor","model":{"dim":1,"cPsi":1,"trees":[{"size":1}]}}}`),
		[]byte(`{"grid":[0,1],"grid":[2],"mapping":{"name":"speed"},"detector":{"name":"ifor","model":{"dim":1,"cPsi":1,"trees":[{"size":1}]}}}`),
		[]byte(`{"grid":[0,1],"smooth":null,"mapping":{"name":"speed"},"detector":{"name":"ifor","model":{"dim":1,"cPsi":1,"trees":[{"size":1}]}}}`),
		[]byte(`{"grid":[0,1],"mapping":{"name":"speed"},"detector":{"name":"ifor","model":{"dim":1,"cPsi":1,"trees":[{"attr":0,"left":[{"size":1}]}]}}} x`),
		[]byte(`{"grid":[0,1],"mapping":{"name":"speed","params":null},"detector":{"name":"ifor","model":{"dim":1,"cPsi":1,"trees":[{"attr":0,"left":[{},{}],"right":[{}]}]}}}`),
		[]byte(`{"GRID":[0,1],"Mapping":{"name":"curvature","params":{"max":2}},"detector":{"NAME":"ocsvm","model":null}}`),
		[]byte(`{"grid":[0,1],"mapping":{"name":"speed"},"detector":{"name":"ifor","model":{"dim":1,"cPsi":1,"trees":[{"attr":1,"left":[{}],"right":[{}]}]}}}`),
		[]byte(`{"version":2,"grid":[0,1]}`), []byte(`null`), []byte(``), []byte(`{`),
	)
	for i, in := range inputs {
		if d := loadDisagreement(in); d != "" {
			t.Errorf("input %d %.80q: %s", i, in, d)
		}
	}
}

// FuzzLoadPipeline holds LoadPipelineJSON to the encoding/json codec
// on arbitrary bytes (loadDisagreement), from saved models of both
// detectors, a stacked mapping, a v0 file and key-reordered files.
func FuzzLoadPipeline(f *testing.F) {
	for _, seed := range loadSeeds(f) {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		if d := loadDisagreement(data); d != "" {
			t.Fatalf("%.200q: %s", data, d)
		}
	})
}
