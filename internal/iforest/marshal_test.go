package iforest

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"math/rand"
	"slices"
	"strings"
	"testing"
)

func TestForestJSONRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	x := gaussianCloud(rng, 80, 3)
	f := fit(t, Options{Trees: 30, Seed: 1}, x)
	data, err := json.Marshal(f)
	if err != nil {
		t.Fatal(err)
	}
	restored := new(Forest)
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

// TestForestMarshalUnfitted: there is no unfitted forest to marshal.
// Options.Fit and a load are the only ways to get one, and a load
// refuses the forms an unfitted forest would take.
func TestForestMarshalUnfitted(t *testing.T) {
	for _, blob := range []string{`{"dim":0,"cPsi":0,"trees":[]}`, `{"dim":2,"cPsi":1,"trees":[]}`, `{}`} {
		var f Forest
		if err := json.Unmarshal([]byte(blob), &f); !errors.Is(err, ErrModel) {
			t.Fatalf("%s: err = %v want ErrModel", blob, err)
		}
	}
}

func TestForestUnmarshalRejectsGarbage(t *testing.T) {
	f := new(Forest)
	if err := json.Unmarshal([]byte(`{"dim":0,"trees":[]}`), f); !errors.Is(err, ErrModel) {
		t.Fatalf("err = %v want ErrModel", err)
	}
	if err := json.Unmarshal([]byte(`{`), f); err == nil {
		t.Fatal("truncated json must fail")
	}
}

// TestForestUnmarshalRejectsOneChildNode: a node with one child, or a
// child list of more than one node, is no tree a fit writes. Reading
// the first as a leaf, or the second by its first node, would score on
// a tree the file does not hold, so both fail the load with
// ErrModel, as a bad split attribute does, and the forest keeps its
// previous state.
func TestForestUnmarshalRejectsOneChildNode(t *testing.T) {
	for _, blob := range []string{
		`{"dim":1,"cPsi":1,"trees":[{"attr":0,"value":0.5,"left":[{"size":1,"adj":0}]}]}`,
		`{"dim":1,"cPsi":1,"trees":[{"attr":0,"value":0.5,"right":[{"size":1,"adj":0}]}]}`,
		`{"dim":1,"cPsi":1,"trees":[{"attr":0,"value":0.5,"left":[],"right":[{"size":1}]}]}`,
		`{"dim":1,"cPsi":1,"trees":[{"attr":0,"value":0.5,"left":[{"size":1},{"size":2}],"right":[{"size":1}]}]}`,
		`{"dim":1,"cPsi":1,"trees":[{"size":1},{"attr":0,"value":0.5,"left":[{"attr":0,"value":0.1,"left":[{"size":1}]}],"right":[{"size":1}]}]}`,
	} {
		f := new(Forest)
		if err := json.Unmarshal([]byte(blob), f); !errors.Is(err, ErrModel) {
			t.Fatalf("%s: err = %v, want ErrModel", blob, err)
		}
		if f.roots != nil {
			t.Fatalf("%s: failed load left a usable forest", blob)
		}
	}
	// Both lists empty, or absent, is a leaf.
	f := new(Forest)
	if err := json.Unmarshal([]byte(`{"dim":1,"cPsi":1,"trees":[{"size":3,"adj":1,"left":[],"right":[]}]}`), f); err != nil {
		t.Fatal(err)
	}
}

// TestForestUnmarshalKeyOrder: a forest whose keys come in another
// order — the trees before dim, a node's right child before its left —
// loads to the same flat nodes as the file a fit writes, so it scores
// the same and re-saves to that file.
func TestForestUnmarshalKeyOrder(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	x := gaussianCloud(rng, 40, 3)
	f := fit(t, Options{Trees: 5, Seed: 4}, x)
	saved, err := json.Marshal(f)
	if err != nil {
		t.Fatal(err)
	}
	var doc map[string]any
	if err := json.Unmarshal(saved, &doc); err != nil {
		t.Fatal(err)
	}
	var reorder func(v any) string
	reorder = func(v any) string {
		switch v := v.(type) {
		case map[string]any:
			keys := []string{"right", "left", "trees", "adj", "size", "value", "attr", "cPsi", "dim"}
			var parts []string
			for _, k := range keys {
				if e, ok := v[k]; ok {
					parts = append(parts, fmt.Sprintf("%q:%s", k, reorder(e)))
				}
			}
			return "{" + strings.Join(parts, ",") + "}"
		case []any:
			parts := make([]string, len(v))
			for i, e := range v {
				parts[i] = reorder(e)
			}
			return "[" + strings.Join(parts, ",") + "]"
		}
		b, err := json.Marshal(v)
		if err != nil {
			t.Fatal(err)
		}
		return string(b)
	}
	reordered := reorder(doc)
	if !strings.HasPrefix(reordered, `{"trees":[{"right":`) {
		t.Fatalf("reordering failed: %.60s", reordered)
	}
	got := new(Forest)
	if err := json.Unmarshal([]byte(reordered), got); err != nil {
		t.Fatal(err)
	}
	if !slices.Equal(got.nodes, f.nodes) || !slices.Equal(got.roots, f.roots) || got.dim != f.dim || got.cPsi != f.cPsi {
		t.Fatal("reordered forest loads to other nodes than the fit's")
	}
	if cap(got.nodes) != len(got.nodes) {
		t.Fatalf("node slice keeps %d slots of slack", cap(got.nodes)-len(got.nodes))
	}
}

// pinnedForestJSON pins the encoding of the fit in
// TestForestJSONBytesPinned to the bytes models have always been saved
// with, so a model saved by any release re-saves byte-identical.
const pinnedForestJSON = `{"dim":2,"cPsi":2.7066404880045996,"trees":[{"attr":1,"value":-0.22915835851807742,"size":0,"adj":0,"left":[{"attr":1,"value":-1.2920308932005486,"size":0,"adj":0,"left":[{"attr":1,"value":-1.6107759307781344,"size":0,"adj":0,"left":[{"attr":0,"value":0,"size":1,"adj":0}],"right":[{"attr":0,"value":0,"size":1,"adj":0}]}],"right":[{"attr":0,"value":0.8760965094263918,"size":0,"adj":0,"left":[{"attr":0,"value":0,"size":1,"adj":0}],"right":[{"attr":0,"value":0,"size":1,"adj":0}]}]}],"right":[{"attr":1,"value":1.713757312018119,"size":0,"adj":0,"left":[{"attr":0,"value":0,"size":1,"adj":0}],"right":[{"attr":0,"value":0,"size":1,"adj":0}]}]},{"attr":1,"value":1.6100162868770247,"size":0,"adj":0,"left":[{"attr":1,"value":0.535922527457346,"size":0,"adj":0,"left":[{"attr":1,"value":-1.617817761169715,"size":0,"adj":0,"left":[{"attr":0,"value":0,"size":1,"adj":0}],"right":[{"attr":0,"value":0,"size":3,"adj":1.207392357589623}]}],"right":[{"attr":0,"value":0,"size":1,"adj":0}]}],"right":[{"attr":0,"value":0,"size":1,"adj":0}]}]}`

func TestForestJSONBytesPinned(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	f := fit(t, Options{Trees: 2, Seed: 3}, gaussianCloud(rng, 6, 2))
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
		f := fit(t, opt, x)
		first, err := json.Marshal(f)
		if err != nil {
			t.Fatal(err)
		}
		restored := new(Forest)
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
// load with ErrModel instead. A negative attribute would also pass
// for the flat layout's leaf marker.
func TestForestUnmarshalRejectsBadSplitAttr(t *testing.T) {
	for _, attr := range []int{7, 1, -1} {
		blob := fmt.Sprintf(`{"dim":1,"cPsi":1,"trees":[{"attr":%d,"value":0.5,"left":[{"size":1}],"right":[{"size":1}]}]}`, attr)
		f := new(Forest)
		if err := json.Unmarshal([]byte(blob), f); !errors.Is(err, ErrModel) {
			t.Fatalf("attr %d: err = %v, want ErrModel", attr, err)
		}
	}
	// A bad attribute deep in a later tree fails the whole load, and the
	// forest keeps its previous state.
	blob := `{"dim":2,"cPsi":1,"trees":[{"size":1},{"attr":0,"value":0,"left":[{"size":1}],"right":[{"attr":2,"value":1,"left":[{"size":1}],"right":[{"size":1}]}]}]}`
	f := new(Forest)
	if err := json.Unmarshal([]byte(blob), f); !errors.Is(err, ErrModel) {
		t.Fatalf("deep bad attr: err = %v, want ErrModel", err)
	}
	if f.roots != nil {
		t.Fatal("failed load left a usable forest")
	}
}
