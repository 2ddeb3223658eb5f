package iforest

import (
	"encoding/json"
	"fmt"
	"math"
)

// jsonForest is the serialized form of a fitted forest.
type jsonForest struct {
	Dim   int        `json:"dim"`
	CPsi  float64    `json:"cPsi"`
	Trees []jsonNode `json:"trees"`
}

// jsonNode is one tree node in nested form: an internal node carries
// attr, value and one-element Left and Right lists, a leaf size and adj.
type jsonNode struct {
	Attr  int        `json:"attr"`
	Value float64    `json:"value"`
	Size  int        `json:"size"`
	Adj   float64    `json:"adj"`
	Left  []jsonNode `json:"left,omitempty"`
	Right []jsonNode `json:"right,omitempty"`
}

// encodeNode writes the subtree at nodes[at] in the nested JSON form:
// an internal node carries attr and value, a leaf size and adj.
func (f *Forest) encodeNode(at int32) jsonNode {
	nd := f.nodes[at]
	if nd.attr < 0 {
		return jsonNode{Size: int(nd.child), Adj: nd.value}
	}
	return jsonNode{
		Attr:  int(nd.attr),
		Value: nd.value,
		Left:  []jsonNode{f.encodeNode(nd.child)},
		Right: []jsonNode{f.encodeNode(nd.child + 1)},
	}
}

// decodeNode places the subtree of jn at nodes[at], appending children
// in sibling pairs. A node with one child is corrupt and degrades to a
// leaf so scoring stays safe; an internal node must split on a feature
// in [0, dim).
func (f *Forest) decodeNode(at int, jn jsonNode) error {
	if len(jn.Left) == 0 || len(jn.Right) == 0 {
		if jn.Size < math.MinInt32 || jn.Size > math.MaxInt32 {
			return fmt.Errorf("iforest: unmarshal leaf size %d out of range: %w", jn.Size, ErrNotFitted)
		}
		f.nodes[at] = node{value: jn.Adj, attr: -1, child: int32(jn.Size)}
		return nil
	}
	if jn.Attr < 0 || jn.Attr >= f.dim {
		return fmt.Errorf("iforest: unmarshal split attribute %d outside [0, %d): %w", jn.Attr, f.dim, ErrNotFitted)
	}
	child := len(f.nodes)
	f.nodes = append(f.nodes, node{}, node{})
	f.nodes[at] = node{value: jn.Value, attr: int32(jn.Attr), child: int32(child)}
	if err := f.decodeNode(child, jn.Left[0]); err != nil {
		return err
	}
	return f.decodeNode(child+1, jn.Right[0])
}

// MarshalJSON serializes a fitted forest; it fails on an unfitted one.
func (f *Forest) MarshalJSON() ([]byte, error) {
	if len(f.roots) == 0 {
		return nil, fmt.Errorf("iforest: marshal unfitted forest: %w", ErrNotFitted)
	}
	jf := jsonForest{Dim: f.dim, CPsi: f.cPsi, Trees: make([]jsonNode, len(f.roots))}
	for i, root := range f.roots {
		jf.Trees[i] = f.encodeNode(root)
	}
	return json.Marshal(jf)
}

// UnmarshalJSON restores a fitted forest serialized by MarshalJSON. A
// model that would fail at score time — no trees, or a split on a
// feature the forest does not have — is rejected here, wrapping
// ErrNotFitted.
func (f *Forest) UnmarshalJSON(data []byte) error {
	var jf jsonForest
	if err := json.Unmarshal(data, &jf); err != nil {
		return fmt.Errorf("iforest: unmarshal: %w", err)
	}
	if jf.Dim <= 0 || len(jf.Trees) == 0 || jf.CPsi <= 0 {
		return fmt.Errorf("iforest: unmarshal incomplete model: %w", ErrNotFitted)
	}
	dec := Forest{opt: f.opt, dim: jf.Dim, cPsi: jf.CPsi, roots: make([]int32, len(jf.Trees))}
	for i, jn := range jf.Trees {
		dec.roots[i] = int32(len(dec.nodes))
		dec.nodes = append(dec.nodes, node{})
		if err := dec.decodeNode(int(dec.roots[i]), jn); err != nil {
			return err
		}
	}
	dec.nodes = append(make([]node, 0, len(dec.nodes)), dec.nodes...) // exact size, as in Fit
	*f = dec
	return nil
}
