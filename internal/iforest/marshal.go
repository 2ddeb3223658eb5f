package iforest

import (
	"errors"
	"fmt"
	"math"

	"repro/internal/jsontext"
)

// ErrModel marks every forest ReadJSON refuses.
var ErrModel = errors.New("iforest: invalid model")

// The JSON form of a fitted forest, which model files carry:
//
//	{"dim":D,"cPsi":C,"trees":[N,...]}
//
// with each tree N in nested form: an internal node is
// {"attr":A,"value":V,"size":0,"adj":0,"left":[N],"right":[N]}, a leaf
// {"attr":0,"value":0,"size":S,"adj":c(S)}. WriteJSON appends it
// straight from the flat nodes and ReadJSON reads it straight into
// them, each in one pass; the bytes are the ones encoding/json wrote
// for the same forest, so a model file re-saves byte-identical.

var (
	forestFields = jsontext.Fields{"dim", "cPsi", "trees"}
	nodeFields   = jsontext.Fields{"attr", "value", "size", "adj", "left", "right"}
)

// WriteJSON appends the forest's JSON form to w. A non-finite split
// value is w's error.
func (f *Forest) WriteJSON(w *jsontext.Writer) {
	w.Raw(`{"dim":`)
	w.Int(f.dim)
	w.Raw(`,"cPsi":`)
	w.Float(f.cPsi)
	w.Raw(`,"trees":[`)
	for i, root := range f.roots {
		if i > 0 {
			w.Raw(",")
		}
		f.writeNode(w, root)
	}
	w.Raw("]}")
}

// writeNode appends the subtree at nodes[at] in nested form.
func (f *Forest) writeNode(w *jsontext.Writer, at int32) {
	nd := f.nodes[at]
	if nd.attr < 0 {
		w.Raw(`{"attr":0,"value":0,"size":`)
		w.Int(int(nd.child))
		w.Raw(`,"adj":`)
		w.Float(nd.value)
		w.Raw("}")
		return
	}
	w.Raw(`{"attr":`)
	w.Int(int(nd.attr))
	w.Raw(`,"value":`)
	w.Float(nd.value)
	w.Raw(`,"size":0,"adj":0,"left":[`)
	f.writeNode(w, nd.child)
	w.Raw(`],"right":[`)
	f.writeNode(w, nd.child+1)
	w.Raw("]}")
}

// MarshalJSON serializes the forest.
func (f *Forest) MarshalJSON() ([]byte, error) {
	var w jsontext.Writer
	f.WriteJSON(&w)
	return w.Bytes()
}

// UnmarshalJSON replaces f with the forest serialized by MarshalJSON. It
// refuses what ReadJSON refuses, and anything after the forest's value;
// every refusal wraps ErrModel, and f keeps its previous state.
func (f *Forest) UnmarshalJSON(data []byte) error {
	s := jsontext.NewScanner(data, ErrModel, nil)
	g, err := ReadJSON(&s)
	if err == nil {
		err = s.End()
	}
	if err == nil {
		*f = *g
	}
	return err
}

// ReadJSON reads one forest value at s into a new forest, the nested
// nodes straight into the flat node slice: siblings in pairs, an
// exact-size copy, as Fit lays them out. Keys may come in any order. A
// model that would fail at score time or that no fit writes is refused,
// wrapping ErrModel:
//
//   - no trees, dim ≤ 0 or cPsi ≤ 0;
//   - a split on a feature outside [0, dim), which would panic on every
//     score (a negative one would pass for the leaf marker);
//   - a node with one child, or a child list of more than one node;
//     reading it as a leaf, or reading only its first node, would score
//     every curve that reaches it on a tree the file does not hold;
//   - a leaf size outside int32's range.
func ReadJSON(s *jsontext.Scanner) (*Forest, error) {
	r := reader{s: s, maxAttr: -1}
	var dim int
	var cPsi float64
	var roots []int32
	var seen uint32
	err := s.Object("a forest object", func(key []byte) error {
		i, err := s.Field(forestFields, key, &seen)
		switch {
		case err != nil:
		case i == 0:
			dim, err = s.Int("dim")
		case i == 1:
			cPsi, err = s.Float("cPsi")
		case i == 2:
			roots = []int32{}
			err = s.Array("trees", func() error {
				roots = append(roots, int32(len(r.nodes)))
				r.nodes = append(r.nodes, node{})
				return r.node(len(r.nodes) - 1)
			})
		default:
			err = s.Skip()
		}
		return err
	})
	switch {
	case err != nil:
		return nil, err
	case dim <= 0 || len(roots) == 0 || cPsi <= 0:
		return nil, fmt.Errorf("iforest: unmarshal incomplete model: %w", ErrModel)
	case r.maxAttr >= dim:
		return nil, fmt.Errorf("iforest: unmarshal split attribute %d outside [0, %d): %w", r.maxAttr, dim, ErrModel)
	}
	nodes := r.nodes
	if r.rightFirst {
		nodes = relayout(nodes, roots)
	} else {
		nodes = append(make([]node, 0, len(nodes)), nodes...) // exact size, as in Fit
	}
	return &Forest{nodes: nodes, roots: roots, dim: dim, cPsi: cPsi}, nil
}

// reader places nested JSON nodes into one flat node slice.
type reader struct {
	s     *jsontext.Scanner
	nodes []node
	// maxAttr is the largest split attribute read; the forest checks it
	// against dim, which may come after the trees.
	maxAttr int
	// rightFirst records a node whose "right" came before its "left":
	// its right subtree was placed first, so the nodes need relayout.
	rightFirst bool
}

// node reads one node object into nodes[at]. Its first non-empty child
// list reserves the sibling pair, and each child's subtree is placed as
// it is read.
func (r *reader) node(at int) error {
	s := r.s
	var attr, size int
	var value, adj float64
	child := -1     // the sibling pair's first index, once reserved
	var lists uint8 // bit 0: left read with one node, bit 1: right
	var seen uint32
	err := s.Object("a tree node", func(key []byte) error {
		i, err := s.Field(nodeFields, key, &seen)
		switch {
		case err != nil:
		case i == 0:
			attr, err = s.Int("attr")
		case i == 1:
			value, err = s.Float("value")
		case i == 2:
			size, err = s.Int("size")
		case i == 3:
			adj, err = s.Float("adj")
		case i == 4 || i == 5:
			side := i - 4
			if side == 1 && lists == 0 {
				r.rightFirst = true
			}
			n := 0
			err = s.Array("a child list", func() error {
				if n++; n > 1 {
					return fmt.Errorf("iforest: unmarshal child list with more than one node: %w", ErrModel)
				}
				if child < 0 {
					child = len(r.nodes)
					r.nodes = append(r.nodes, node{}, node{})
				}
				lists |= 1 << side
				return r.node(child + side)
			})
		default:
			err = s.Skip()
		}
		return err
	})
	switch {
	case err != nil:
		return err
	case lists == 0:
		if size < math.MinInt32 || size > math.MaxInt32 {
			return fmt.Errorf("iforest: unmarshal leaf size %d out of range: %w", size, ErrModel)
		}
		r.nodes[at] = node{value: adj, attr: -1, child: int32(size)}
	case lists != 3:
		return fmt.Errorf("iforest: unmarshal node with one child: %w", ErrModel)
	case attr < 0:
		return fmt.Errorf("iforest: unmarshal split attribute %d is negative: %w", attr, ErrModel)
	default:
		r.maxAttr = max(r.maxAttr, attr)
		r.nodes[at] = node{value: value, attr: int32(attr), child: int32(child)}
	}
	return nil
}

// relayout returns nodes laid out as Fit lays them out: each tree depth
// first, a split's sibling pair reserved before its left subtree is
// placed. It rewrites roots to match.
func relayout(nodes []node, roots []int32) []node {
	out := make([]node, 0, len(nodes))
	var place func(from int32, at int)
	place = func(from int32, at int) {
		nd := nodes[from]
		if nd.attr >= 0 {
			child := len(out)
			out = append(out, node{}, node{})
			place(nd.child, child)
			place(nd.child+1, child+1)
			nd.child = int32(child)
		}
		out[at] = nd
	}
	for t, root := range roots {
		roots[t] = int32(len(out))
		out = append(out, node{})
		place(root, int(roots[t]))
	}
	return out
}
