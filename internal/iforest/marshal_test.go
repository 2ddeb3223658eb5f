package iforest

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"math/rand"
	"testing"
)

func TestForestJSONRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	x := gaussianCloud(rng, 80, 3)
	f := New(Options{Trees: 30, Seed: 1})
	if err := f.Fit(x); err != nil {
		t.Fatal(err)
	}
	data, err := json.Marshal(f)
	if err != nil {
		t.Fatal(err)
	}
	restored := New(Options{})
	if err := json.Unmarshal(data, restored); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 10; i++ {
		want, err := f.Score(x[i])
		if err != nil {
			t.Fatal(err)
		}
		got, err := restored.Score(x[i])
		if err != nil {
			t.Fatal(err)
		}
		if got != want {
			t.Fatalf("score[%d] = %g after round-trip, want %g", i, got, want)
		}
	}
}

func TestForestMarshalUnfitted(t *testing.T) {
	if _, err := json.Marshal(New(Options{})); !errors.Is(err, ErrNotFitted) {
		t.Fatalf("err = %v want ErrNotFitted", err)
	}
}

func TestForestUnmarshalRejectsGarbage(t *testing.T) {
	f := New(Options{})
	if err := json.Unmarshal([]byte(`{"dim":0,"trees":[]}`), f); !errors.Is(err, ErrNotFitted) {
		t.Fatalf("err = %v want ErrNotFitted", err)
	}
	if err := json.Unmarshal([]byte(`{`), f); err == nil {
		t.Fatal("truncated json must fail")
	}
}

func TestForestUnmarshalRepairsAsymmetricNode(t *testing.T) {
	// A node with a left child but no right child is corrupt; decoding
	// must degrade it to a leaf rather than panic during scoring.
	blob := `{"dim":1,"cPsi":1,"trees":[{"attr":0,"value":0.5,"left":[{"size":1,"adj":0}]}]}`
	f := New(Options{})
	if err := json.Unmarshal([]byte(blob), f); err != nil {
		t.Fatal(err)
	}
	if _, err := f.Score([]float64{0.2}); err != nil {
		t.Fatal(err)
	}
}

// pinnedForestJSON pins the encoding of the fit in
// TestForestJSONBytesPinned to the bytes models have always been saved
// with, so a model saved by any release re-saves byte-identical.
const pinnedForestJSON = `{"dim":2,"cPsi":2.7066404880045996,"trees":[{"attr":1,"value":-0.22915835851807742,"size":0,"adj":0,"left":[{"attr":1,"value":-1.2920308932005486,"size":0,"adj":0,"left":[{"attr":1,"value":-1.6107759307781344,"size":0,"adj":0,"left":[{"attr":0,"value":0,"size":1,"adj":0}],"right":[{"attr":0,"value":0,"size":1,"adj":0}]}],"right":[{"attr":0,"value":0.8760965094263918,"size":0,"adj":0,"left":[{"attr":0,"value":0,"size":1,"adj":0}],"right":[{"attr":0,"value":0,"size":1,"adj":0}]}]}],"right":[{"attr":1,"value":1.713757312018119,"size":0,"adj":0,"left":[{"attr":0,"value":0,"size":1,"adj":0}],"right":[{"attr":0,"value":0,"size":1,"adj":0}]}]},{"attr":1,"value":1.6100162868770247,"size":0,"adj":0,"left":[{"attr":1,"value":0.535922527457346,"size":0,"adj":0,"left":[{"attr":1,"value":-1.617817761169715,"size":0,"adj":0,"left":[{"attr":0,"value":0,"size":1,"adj":0}],"right":[{"attr":0,"value":0,"size":3,"adj":1.207392357589623}]}],"right":[{"attr":0,"value":0,"size":1,"adj":0}]}],"right":[{"attr":0,"value":0,"size":1,"adj":0}]}]}`

func TestForestJSONBytesPinned(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	f := New(Options{Trees: 2, Seed: 3})
	if err := f.Fit(gaussianCloud(rng, 6, 2)); err != nil {
		t.Fatal(err)
	}
	data, err := json.Marshal(f)
	if err != nil {
		t.Fatal(err)
	}
	if string(data) != pinnedForestJSON {
		t.Fatalf("encoding changed:\n got %s\nwant %s", data, pinnedForestJSON)
	}
}

// TestForestMarshalRoundTripBytes: marshal → unmarshal → marshal gives
// identical bytes, for forests whose leaves stop at the depth limit
// (size > 1, adj > 0) and whose tree count is not a multiple of four.
func TestForestMarshalRoundTripBytes(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	x := gaussianCloud(rng, 300, 4)
	for _, opt := range []Options{{Trees: 30, Seed: 9}, {Trees: 7, SampleSize: 200, MaxDepth: 3, Seed: 10}} {
		f := New(opt)
		if err := f.Fit(x); err != nil {
			t.Fatal(err)
		}
		first, err := json.Marshal(f)
		if err != nil {
			t.Fatal(err)
		}
		restored := New(Options{})
		if err := json.Unmarshal(first, restored); err != nil {
			t.Fatal(err)
		}
		second, err := json.Marshal(restored)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(first, second) {
			t.Fatalf("%+v: re-encoding differs (%d vs %d bytes)", opt, len(first), len(second))
		}
	}
}

// TestForestUnmarshalRejectsBadSplitAttr: a split on a feature outside
// [0, dim) used to load and then panic on every score; it must fail the
// load with ErrNotFitted instead. A negative attribute would also pass
// for the flat layout's leaf marker.
func TestForestUnmarshalRejectsBadSplitAttr(t *testing.T) {
	for _, attr := range []int{7, 1, -1} {
		blob := fmt.Sprintf(`{"dim":1,"cPsi":1,"trees":[{"attr":%d,"value":0.5,"left":[{"size":1}],"right":[{"size":1}]}]}`, attr)
		f := New(Options{})
		if err := json.Unmarshal([]byte(blob), f); !errors.Is(err, ErrNotFitted) {
			t.Fatalf("attr %d: err = %v, want ErrNotFitted", attr, err)
		}
	}
	// A bad attribute deep in a later tree fails the whole load, and the
	// forest keeps its previous state.
	blob := `{"dim":2,"cPsi":1,"trees":[{"size":1},{"attr":0,"value":0,"left":[{"size":1}],"right":[{"attr":2,"value":1,"left":[{"size":1}],"right":[{"size":1}]}]}]}`
	f := New(Options{})
	if err := json.Unmarshal([]byte(blob), f); !errors.Is(err, ErrNotFitted) {
		t.Fatalf("deep bad attr: err = %v, want ErrNotFitted", err)
	}
	if _, err := f.Score([]float64{0, 0}); !errors.Is(err, ErrNotFitted) {
		t.Fatalf("failed load left a usable forest: err = %v", err)
	}
}
