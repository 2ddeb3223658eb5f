package core

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"reflect"
	"strings"

	"repro/internal/fda"
	"repro/internal/iforest"
	"repro/internal/ocsvm"
)

// The model-file codec as it was on encoding/json, kept as the oracle
// of the one-pass codec: oracleSave writes what SaveJSON wrote, and
// loadOracle reads what LoadPipelineJSON read, down to the forest's
// flat nodes, and records where it read a file as something the file
// does not say.

type oraclePipeline struct {
	Version   int            `json:"version"`
	Smooth    jsonSmooth     `json:"smooth"`
	Mapping   jsonMapping    `json:"mapping"`
	Detector  oracleDetector `json:"detector"`
	Grid      []float64      `json:"grid"`
	GridLo    float64        `json:"gridLo"`
	GridHi    float64        `json:"gridHi"`
	FeatMean  []float64      `json:"featMean,omitempty"`
	FeatScale []float64      `json:"featScale,omitempty"`
}

type oracleDetector struct {
	Name  string          `json:"name"`
	Model json.RawMessage `json:"model"`
}

// oracleForestJSON and oracleNode are the forest's nested form as
// encoding/json read and wrote it.
type oracleForestJSON struct {
	Dim   int          `json:"dim"`
	CPsi  float64      `json:"cPsi"`
	Trees []oracleNode `json:"trees"`
}

type oracleNode struct {
	Attr  int          `json:"attr"`
	Value float64      `json:"value"`
	Size  int          `json:"size"`
	Adj   float64      `json:"adj"`
	Left  []oracleNode `json:"left,omitempty"`
	Right []oracleNode `json:"right,omitempty"`
}

// flatNode mirrors iforest's node: a split's value, attribute and
// first child's index, or a leaf's c(size), −1 and size.
type flatNode struct {
	value       float64
	attr, child int32
}

// flatForest is a forest's fitted arrays. It scores as a Detector by
// the plain tree walk, so an oracle pipeline can score.
type flatForest struct {
	nodes []flatNode
	roots []int32
	dim   int
	cPsi  float64
}

func (*flatForest) Name() string { return "oracle iFor" }

// ScoreBatch walks every tree for each row and averages the path
// lengths in tree order, as iforest.Forest.Score does.
func (f *flatForest) ScoreBatch(x [][]float64) ([]float64, error) {
	out := make([]float64, len(x))
	for i, xq := range x {
		var sum float64
		for _, at := range f.roots {
			depth := 0
			for f.nodes[at].attr >= 0 {
				nd := f.nodes[at]
				at = nd.child
				if !(xq[nd.attr] < nd.value) {
					at++
				}
				depth++
			}
			sum += float64(depth) + f.nodes[at].value
		}
		out[i] = math.Pow(2, -(sum/float64(len(f.roots)))/f.cPsi)
	}
	return out, nil
}

// forestOf reads f's fitted arrays. iforest exports none of them;
// reflection reads unexported fields, though it cannot write them.
func forestOf(f *iforest.Forest) flatForest {
	v := reflect.ValueOf(f).Elem()
	nodes, roots := v.FieldByName("nodes"), v.FieldByName("roots")
	out := flatForest{
		nodes: make([]flatNode, nodes.Len()),
		roots: make([]int32, roots.Len()),
		dim:   int(v.FieldByName("dim").Int()),
		cPsi:  v.FieldByName("cPsi").Float(),
	}
	for i := range out.nodes {
		nd := nodes.Index(i)
		out.nodes[i] = flatNode{value: nd.Field(0).Float(), attr: int32(nd.Field(1).Int()), child: int32(nd.Field(2).Int())}
	}
	for i := range out.roots {
		out.roots[i] = int32(roots.Index(i).Int())
	}
	return out
}

// encodeNode is the old nested encoding of the subtree at nodes[at].
func (f *flatForest) encodeNode(at int32) oracleNode {
	nd := f.nodes[at]
	if nd.attr < 0 {
		return oracleNode{Size: int(nd.child), Adj: nd.value}
	}
	return oracleNode{
		Attr:  int(nd.attr),
		Value: nd.value,
		Left:  []oracleNode{f.encodeNode(nd.child)},
		Right: []oracleNode{f.encodeNode(nd.child + 1)},
	}
}

// oracleSave is SaveJSON as it was: json.Marshal of each detector into
// a RawMessage, then one Encoder.Encode of the whole.
func oracleSave(p *Pipeline) ([]byte, error) {
	jm, err := encodeMapping(p.Mapping)
	if err != nil {
		return nil, err
	}
	var jd oracleDetector
	switch det := p.Detector.(type) {
	case *iforest.Forest:
		ff := forestOf(det)
		jf := oracleForestJSON{Dim: ff.dim, CPsi: ff.cPsi, Trees: make([]oracleNode, len(ff.roots))}
		for i, root := range ff.roots {
			jf.Trees[i] = ff.encodeNode(root)
		}
		blob, err := json.Marshal(jf)
		if err != nil {
			return nil, err
		}
		jd = oracleDetector{Name: "ifor", Model: blob}
	case *ocsvm.Model:
		blob, err := json.Marshal(det)
		if err != nil {
			return nil, err
		}
		jd = oracleDetector{Name: "ocsvm", Model: blob}
	default:
		return nil, fmt.Errorf("oracle: detector %q is not serializable", det.Name())
	}
	var buf bytes.Buffer
	err = json.NewEncoder(&buf).Encode(oraclePipeline{
		Version: pipelineVersion,
		Smooth: jsonSmooth{
			Order:        p.Smooth.Order,
			Dims:         p.Smooth.Dims,
			Lambdas:      p.Smooth.Lambdas,
			PenaltyDeriv: p.Smooth.PenaltyDeriv,
			Lo:           p.Smooth.Lo,
			Hi:           p.Smooth.Hi,
			Criterion:    int(p.Smooth.Criterion),
		},
		Mapping:   jm,
		Detector:  jd,
		Grid:      p.grid,
		GridLo:    p.gridLo,
		GridHi:    p.gridHi,
		FeatMean:  p.featMean,
		FeatScale: p.featScale,
	})
	return buf.Bytes(), err
}

// oracleLoad is what loadOracle, LoadPipelineJSON as it was, read. Its
// pipeline scores with the oracle's forest, or the one-class SVM
// encoding/json decoded.
type oracleLoad struct {
	p      *Pipeline
	forest *flatForest
	// repaired counts the forest nodes read as something the file does
	// not say: one child read as a leaf, or a child list of several
	// nodes read by its first.
	repaired int
	// trailing is true when anything but whitespace follows the
	// document, which json.Decoder never reads.
	trailing bool
}

func loadOracle(data []byte) (oracleLoad, error) {
	var in oraclePipeline
	dec := json.NewDecoder(bytes.NewReader(data))
	if err := dec.Decode(&in); err != nil {
		return oracleLoad{}, err
	}
	out := oracleLoad{trailing: strings.Trim(string(data[dec.InputOffset():]), " \t\r\n") != ""}
	if in.Version < 0 || in.Version > pipelineVersion {
		return out, fmt.Errorf("oracle: version %d", in.Version)
	}
	if len(in.Grid) == 0 {
		return out, errors.New("oracle: no grid")
	}
	mapping, err := decodeMapping(in.Mapping)
	if err != nil {
		return out, err
	}
	var det Detector
	switch in.Detector.Name {
	case "ifor":
		if out.forest, err = out.decodeForest(in.Detector.Model); err != nil {
			return out, err
		}
		det = out.forest
	case "ocsvm":
		m := new(ocsvm.Model)
		if err := json.Unmarshal(in.Detector.Model, m); err != nil {
			return out, err
		}
		det = m
	default:
		return out, fmt.Errorf("oracle: unknown detector %q", in.Detector.Name)
	}
	out.p = &Pipeline{
		Smooth: fda.Options{
			Order:        in.Smooth.Order,
			Dims:         in.Smooth.Dims,
			Lambdas:      in.Smooth.Lambdas,
			PenaltyDeriv: in.Smooth.PenaltyDeriv,
			Lo:           in.Smooth.Lo,
			Hi:           in.Smooth.Hi,
			Criterion:    fda.Criterion(in.Smooth.Criterion),
		},
		Mapping:     mapping,
		Detector:    det,
		GridSize:    len(in.Grid),
		Standardize: in.FeatMean != nil,
		fitted:      true,
		gridLo:      in.GridLo,
		gridHi:      in.GridHi,
		grid:        in.Grid,
		featMean:    in.FeatMean,
		featScale:   in.FeatScale,
	}
	return out, nil
}

// decodeForest is the forest's UnmarshalJSON as it was.
func (o *oracleLoad) decodeForest(data []byte) (*flatForest, error) {
	var jf oracleForestJSON
	if err := json.Unmarshal(data, &jf); err != nil {
		return nil, err
	}
	if jf.Dim <= 0 || len(jf.Trees) == 0 || jf.CPsi <= 0 {
		return nil, errors.New("oracle: incomplete forest")
	}
	f := &flatForest{dim: jf.Dim, cPsi: jf.CPsi, roots: make([]int32, len(jf.Trees))}
	for i, jn := range jf.Trees {
		f.roots[i] = int32(len(f.nodes))
		f.nodes = append(f.nodes, flatNode{})
		if err := o.decodeNode(f, int(f.roots[i]), jn); err != nil {
			return nil, err
		}
	}
	return f, nil
}

// decodeNode is the old decodeNode: a node with one child degrades to
// a leaf, and a child list is read by its first node.
func (o *oracleLoad) decodeNode(f *flatForest, at int, jn oracleNode) error {
	if (len(jn.Left) == 0) != (len(jn.Right) == 0) || len(jn.Left) > 1 || len(jn.Right) > 1 {
		o.repaired++
	}
	if len(jn.Left) == 0 || len(jn.Right) == 0 {
		if jn.Size < math.MinInt32 || jn.Size > math.MaxInt32 {
			return errors.New("oracle: leaf size out of range")
		}
		f.nodes[at] = flatNode{value: jn.Adj, attr: -1, child: int32(jn.Size)}
		return nil
	}
	if jn.Attr < 0 || jn.Attr >= f.dim {
		return errors.New("oracle: split attribute out of range")
	}
	child := len(f.nodes)
	f.nodes = append(f.nodes, flatNode{}, flatNode{})
	f.nodes[at] = flatNode{value: jn.Value, attr: int32(jn.Attr), child: int32(child)}
	if err := o.decodeNode(f, child, jn.Left[0]); err != nil {
		return err
	}
	return o.decodeNode(f, child+1, jn.Right[0])
}

// pipelineDiff compares a loaded pipeline with the oracle's field by
// field, every float by its bits; "" means equal.
func pipelineDiff(got *Pipeline, want oracleLoad) string {
	w := want.p
	fields := []struct {
		name      string
		got, want any
	}{
		{"smooth", got.Smooth, w.Smooth},
		{"mapping", got.Mapping, w.Mapping},
		{"grid", got.grid, w.grid},
		{"gridLo", got.gridLo, w.gridLo},
		{"gridHi", got.gridHi, w.gridHi},
		{"featMean", got.featMean, w.featMean},
		{"featScale", got.featScale, w.featScale},
		{"gridSize", got.GridSize, w.GridSize},
		{"standardize", got.Standardize, w.Standardize},
	}
	switch det := got.Detector.(type) {
	case *iforest.Forest:
		if want.forest == nil {
			return "an iFor detector where the oracle read another"
		}
		fields = append(fields, struct {
			name      string
			got, want any
		}{"forest", forestOf(det), *want.forest})
	default:
		fields = append(fields, struct {
			name      string
			got, want any
		}{"detector", got.Detector, w.Detector})
	}
	for _, f := range fields {
		if !sameBits(reflect.ValueOf(f.got), reflect.ValueOf(f.want)) {
			return fmt.Sprintf("%s: %+v, oracle %+v", f.name, f.got, f.want)
		}
	}
	return ""
}

// sameBits is reflect.DeepEqual with floats compared by their bits, so
// that 0 and -0 differ; it reads unexported fields too.
func sameBits(a, b reflect.Value) bool {
	if a.IsValid() != b.IsValid() || (a.IsValid() && a.Type() != b.Type()) {
		return false
	}
	if !a.IsValid() {
		return true
	}
	switch a.Kind() {
	case reflect.Float32, reflect.Float64:
		return math.Float64bits(a.Float()) == math.Float64bits(b.Float())
	case reflect.Slice:
		if a.IsNil() != b.IsNil() {
			return false
		}
		fallthrough
	case reflect.Array:
		if a.Len() != b.Len() {
			return false
		}
		for i := 0; i < a.Len(); i++ {
			if !sameBits(a.Index(i), b.Index(i)) {
				return false
			}
		}
		return true
	case reflect.Struct:
		for i := 0; i < a.NumField(); i++ {
			if !sameBits(a.Field(i), b.Field(i)) {
				return false
			}
		}
		return true
	case reflect.Pointer, reflect.Interface:
		if a.IsNil() || b.IsNil() {
			return a.IsNil() == b.IsNil()
		}
		return sameBits(a.Elem(), b.Elem())
	case reflect.Func:
		return a.IsNil() && b.IsNil()
	case reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64:
		return a.Int() == b.Int()
	case reflect.Uint, reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64, reflect.Uintptr:
		return a.Uint() == b.Uint()
	case reflect.Bool:
		return a.Bool() == b.Bool()
	case reflect.String:
		return a.String() == b.String()
	}
	return false
}
