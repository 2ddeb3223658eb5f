package core

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"io/fs"

	"repro/internal/fda"
	"repro/internal/geometry"
	"repro/internal/iforest"
	"repro/internal/jsontext"
	"repro/internal/ocsvm"
)

// Pipeline persistence: a fitted pipeline round-trips through JSON so a
// model trained once can score new curves in another process. The
// serializable surface is the built-in one — B-spline smoothing options
// (custom basis factories cannot be encoded), the registry mapping
// functions, and the iForest / one-class SVM detectors. A model file is
//
//	{"version":1,"smooth":{...},"mapping":{...},"detector":{"name":...,"model":...},
//	 "grid":[...],"gridLo":x,"gridHi":x,"featMean":[...],"featScale":[...]}
//
// plus a newline, with the smooth fields, featMean and featScale left
// out when zero or empty. SaveJSON appends it with a jsontext.Writer and
// LoadPipelineJSON reads it with a jsontext.Scanner, each in one pass:
// an iForest's trees, nearly all of a Curvmap model's bytes, go
// between the file and the forest's flat nodes with no tree of
// intermediate values (iforest.Forest.WriteJSON and iforest.ReadJSON). The
// smoothing options, the mapping and a one-class SVM model are small
// and stay on encoding/json over their own bytes. The bytes are the ones encoding/json wrote for
// the same pipeline, so a model file re-saves byte-identical.

// ErrModelFile marks every model file LoadPipelineJSON refuses, whatever
// refused it: bad syntax or shape, data after the document, a forest no
// fit writes, or smoothing options, a mapping or a detector model that
// do not decode. The error keeps its cause, which still matches
// ErrPipeline, iforest.ErrModel or the encoding/json error it is, so
// a caller tells a corrupt file (ErrModelFile) from a failure to read it
// (an I/O error, which does not match).
var ErrModelFile = errors.New("core: refused model file")

// pipelineVersion is the current on-disk schema version written by
// SaveJSON. Version 0 (the field absent) is the original schema; the two
// are wire-compatible, so LoadPipelineJSON accepts both and rejects
// anything newer it cannot know how to read.
const pipelineVersion = 1

// The keys of the objects a model file holds that the scanner reads.
var (
	pipelineFields = jsontext.Fields{"version", "smooth", "mapping", "detector", "grid", "gridLo", "gridHi", "featMean", "featScale"}
	detectorFields = jsontext.Fields{"name", "model"}
)

// jsonSmooth is the on-disk form of the smoothing options; a zero
// field is left out.
type jsonSmooth struct {
	Order        int       `json:"order,omitempty"`
	Dims         []int     `json:"dims,omitempty"`
	Lambdas      []float64 `json:"lambdas,omitempty"`
	PenaltyDeriv int       `json:"penaltyDeriv,omitempty"`
	Lo           float64   `json:"lo,omitempty"`
	Hi           float64   `json:"hi,omitempty"`
	Criterion    int       `json:"criterion,omitempty"`
}

// jsonMapping is the on-disk form of a mapping.
type jsonMapping struct {
	Name string `json:"name"`
	// Params carries the mapping struct's own fields (clamps, shifts);
	// Stack members recurse.
	Params  json.RawMessage `json:"params,omitempty"`
	Members []jsonMapping   `json:"members,omitempty"`
}

func encodeMapping(m geometry.Mapping) (jsonMapping, error) {
	if st, ok := m.(geometry.Stack); ok {
		out := jsonMapping{Name: "stack"}
		for _, member := range st {
			jm, err := encodeMapping(member)
			if err != nil {
				return jsonMapping{}, err
			}
			out.Members = append(out.Members, jm)
		}
		return out, nil
	}
	if _, ok := geometry.Registry()[m.Name()]; !ok {
		return jsonMapping{}, fmt.Errorf("core: mapping %q is not serializable: %w", m.Name(), ErrPipeline)
	}
	params, err := json.Marshal(m)
	if err != nil {
		return jsonMapping{}, fmt.Errorf("core: encode mapping %q: %w", m.Name(), err)
	}
	return jsonMapping{Name: m.Name(), Params: params}, nil
}

func decodeMapping(jm jsonMapping) (geometry.Mapping, error) {
	if jm.Name == "stack" {
		st := make(geometry.Stack, 0, len(jm.Members))
		for _, member := range jm.Members {
			m, err := decodeMapping(member)
			if err != nil {
				return nil, err
			}
			st = append(st, m)
		}
		if len(st) == 0 {
			return nil, fmt.Errorf("core: empty stack mapping: %w", ErrPipeline)
		}
		return st, nil
	}
	unmarshal := func(target geometry.Mapping) (geometry.Mapping, error) {
		if len(jm.Params) > 0 {
			if err := json.Unmarshal(jm.Params, target); err != nil {
				return nil, fmt.Errorf("core: decode mapping %q: %w", jm.Name, err)
			}
		}
		return target, nil
	}
	switch jm.Name {
	case "curvature":
		m := &geometry.Curvature{}
		out, err := unmarshal(m)
		if err != nil {
			return nil, err
		}
		return *out.(*geometry.Curvature), nil
	case "log-curvature":
		m := &geometry.LogCurvature{}
		out, err := unmarshal(m)
		if err != nil {
			return nil, err
		}
		return *out.(*geometry.LogCurvature), nil
	case "normalized-curvature":
		m := &geometry.NormalizedCurvature{}
		out, err := unmarshal(m)
		if err != nil {
			return nil, err
		}
		return *out.(*geometry.NormalizedCurvature), nil
	case "radius":
		m := &geometry.RadiusOfCurvature{}
		out, err := unmarshal(m)
		if err != nil {
			return nil, err
		}
		return *out.(*geometry.RadiusOfCurvature), nil
	case "speed":
		return geometry.Speed{}, nil
	case "signed-curvature":
		return geometry.SignedCurvature{}, nil
	case "turning-angle":
		return geometry.TurningAngle{}, nil
	case "torsion":
		return geometry.Torsion{}, nil
	case "arc-length":
		return geometry.ArcLength{}, nil
	case "raw":
		return geometry.Raw{}, nil
	default:
		return nil, fmt.Errorf("core: unknown mapping %q: %w", jm.Name, ErrPipeline)
	}
}

// SaveJSON writes the fitted pipeline to w. It fails when the pipeline is
// unfitted, uses non-serializable components (a custom basis factory,
// mapping or detector) or holds a value JSON cannot carry (NaN, ±Inf).
func (p *Pipeline) SaveJSON(w io.Writer) error {
	if !p.fitted {
		return fmt.Errorf("core: save unfitted pipeline: %w", ErrPipeline)
	}
	if p.Smooth.Basis != nil {
		return fmt.Errorf("core: custom basis factories are not serializable: %w", ErrPipeline)
	}
	jm, err := encodeMapping(p.Mapping)
	if err != nil {
		return err
	}
	mapping, err := json.Marshal(jm)
	if err != nil {
		return fmt.Errorf("core: encode mapping %q: %w", jm.Name, err)
	}
	smooth, err := json.Marshal(jsonSmooth{
		Order:        p.Smooth.Order,
		Dims:         p.Smooth.Dims,
		Lambdas:      p.Smooth.Lambdas,
		PenaltyDeriv: p.Smooth.PenaltyDeriv,
		Lo:           p.Smooth.Lo,
		Hi:           p.Smooth.Hi,
		Criterion:    int(p.Smooth.Criterion),
	})
	if err != nil {
		return fmt.Errorf("core: encode smoothing options: %w: %w", err, ErrPipeline)
	}
	var out jsontext.Writer
	out.Raw(`{"version":`)
	out.Int(pipelineVersion)
	out.Raw(`,"smooth":`)
	out.Raw(string(smooth))
	out.Raw(`,"mapping":`)
	out.Raw(string(mapping))
	out.Raw(`,"detector":`)
	if err := writeDetector(&out, p.Detector); err != nil {
		return err
	}
	out.Raw(`,"grid":`)
	out.FloatArray(p.grid)
	out.Raw(`,"gridLo":`)
	out.Float(p.gridLo)
	out.Raw(`,"gridHi":`)
	out.Float(p.gridHi)
	if len(p.featMean) > 0 {
		out.Raw(`,"featMean":`)
		out.FloatArray(p.featMean)
	}
	if len(p.featScale) > 0 {
		out.Raw(`,"featScale":`)
		out.FloatArray(p.featScale)
	}
	out.Raw("}\n")
	b, err := out.Bytes()
	if err != nil {
		return fmt.Errorf("core: save pipeline: %w: %w", err, ErrPipeline)
	}
	_, err = w.Write(b)
	return err
}

// writeDetector appends the detector's object: its name and its model.
func writeDetector(w *jsontext.Writer, d Detector) error {
	switch det := d.(type) {
	case *iforest.Forest:
		w.Raw(`{"name":"ifor","model":`)
		det.WriteJSON(w)
	case *ocsvm.Model:
		blob, err := json.Marshal(det)
		if err != nil {
			return err
		}
		w.Raw(`{"name":"ocsvm","model":`)
		w.Raw(string(blob))
	default:
		return fmt.Errorf("core: detector %q is not serializable: %w", d.Name(), ErrPipeline)
	}
	w.Raw("}")
	return nil
}

// LoadPipelineJSON restores a fitted pipeline saved with SaveJSON; the
// result scores new datasets without refitting and holds no reference
// to the bytes it was read from. Keys may come in any order, and
// unknown ones are skipped. Beyond what encoding/json refuses, it
// refuses, wrapping ErrPipeline, what encoding/json would misread: data
// after the document (jsontext.ErrTrailing), and outside the parts
// encoding/json still decodes, a null where a value belongs
// (jsontext.ErrNull) and a field given twice (jsontext.ErrDuplicate); a
// forest that no fit writes is refused with iforest.ErrModel (see
// iforest.ReadJSON). Every refusal also matches ErrModelFile. The
// pipeline has no DetectorSpec, so its Fit fails: a model file scores,
// and a new model comes from a new fit.
func LoadPipelineJSON(r io.Reader) (*Pipeline, error) {
	data, err := readAll(r)
	if err != nil {
		return nil, fmt.Errorf("core: read pipeline: %w", err)
	}
	p, err := decodePipeline(data)
	if err != nil {
		return nil, fmt.Errorf("%w: core: decode pipeline: %w", ErrModelFile, err)
	}
	return p, nil
}

// readAll reads r whole. A reader that tells its size, such as a file
// or a bytes.Reader, is read into one buffer of that size, where
// io.ReadAll's growth would allocate about five times the model.
func readAll(r io.Reader) ([]byte, error) {
	var buf bytes.Buffer
	switch src := r.(type) {
	case interface{ Len() int }:
		buf.Grow(src.Len() + bytes.MinRead)
	case interface{ Stat() (fs.FileInfo, error) }:
		if fi, err := src.Stat(); err == nil {
			buf.Grow(int(fi.Size()) + bytes.MinRead)
		}
	}
	_, err := buf.ReadFrom(r)
	return buf.Bytes(), err
}

// decodePipeline reads a model file in one pass.
func decodePipeline(data []byte) (*Pipeline, error) {
	s := jsontext.NewScanner(data, ErrPipeline, nil)
	p := &Pipeline{
		fitted: true,
		// A loaded pipeline scores without refitting, so give it a fresh
		// basis cache: repeat requests on the same measurement grid then
		// skip straight to the memoized factorizations.
		cache: fda.NewBasisCache(),
	}
	var seen uint32
	err := s.Object("the pipeline object", func(key []byte) error {
		i, err := s.Field(pipelineFields, key, &seen)
		switch {
		case err != nil:
		case i == 0:
			var version int
			if version, err = s.Int("version"); err == nil && (version < 0 || version > pipelineVersion) {
				err = fmt.Errorf("core: pipeline blob has version %d, this build reads <= %d (upgrade the library or re-save the model): %w",
					version, pipelineVersion, ErrPipeline)
			}
		case i == 1:
			p.Smooth, err = readSmooth(&s)
		case i == 2:
			p.Mapping, err = readMapping(&s)
		case i == 3:
			p.Detector, err = readDetector(&s)
		case i == 4:
			p.grid, err = s.FloatArray("grid")
		case i == 5:
			p.gridLo, err = s.Float("gridLo")
		case i == 6:
			p.gridHi, err = s.Float("gridHi")
		case i == 7:
			p.featMean, err = s.FloatArray("featMean")
		case i == 8:
			p.featScale, err = s.FloatArray("featScale")
		default:
			err = s.Skip()
		}
		return err
	})
	if err == nil {
		err = s.End()
	}
	switch {
	case err != nil:
		return nil, err
	case len(p.grid) == 0:
		return nil, fmt.Errorf("core: pipeline blob has no grid: %w", ErrPipeline)
	case p.Mapping == nil:
		return nil, fmt.Errorf("core: pipeline blob has no mapping: %w", ErrPipeline)
	case p.Detector == nil:
		return nil, fmt.Errorf("core: pipeline blob has no detector: %w", ErrPipeline)
	}
	p.GridSize = len(p.grid)
	p.Standardize = p.featMean != nil
	return p, nil
}

// readSmooth reads the smoothing options' object; encoding/json
// decodes its own bytes.
func readSmooth(s *jsontext.Scanner) (fda.Options, error) {
	raw, err := s.Raw()
	if err != nil {
		return fda.Options{}, err
	}
	var js jsonSmooth
	if err := json.Unmarshal(raw, &js); err != nil {
		return fda.Options{}, fmt.Errorf("core: decode smoothing options: %w", err)
	}
	return fda.Options{
		Order:        js.Order,
		Dims:         js.Dims,
		Lambdas:      js.Lambdas,
		PenaltyDeriv: js.PenaltyDeriv,
		Lo:           js.Lo,
		Hi:           js.Hi,
		Criterion:    fda.Criterion(js.Criterion),
	}, nil
}

// readMapping reads the mapping's object; encoding/json decodes its own
// bytes.
func readMapping(s *jsontext.Scanner) (geometry.Mapping, error) {
	raw, err := s.Raw()
	if err != nil {
		return nil, err
	}
	var jm jsonMapping
	if err := json.Unmarshal(raw, &jm); err != nil {
		return nil, fmt.Errorf("core: decode mapping: %w", err)
	}
	return decodeMapping(jm)
}

// readDetector reads the detector's object. A model given before the
// detector's name is kept as bytes and read once the name is known.
func readDetector(s *jsontext.Scanner) (Detector, error) {
	var name string
	var det Detector
	var model []byte
	var seen uint32
	err := s.Object("the detector object", func(key []byte) error {
		i, err := s.Field(detectorFields, key, &seen)
		switch {
		case err != nil:
		case i == 0:
			name, err = s.String("name")
		case i == 1 && seen&1 == 0:
			model, err = s.Raw()
		case i == 1:
			det, err = readModel(s, name)
		default:
			err = s.Skip()
		}
		return err
	})
	if err != nil || det != nil {
		return det, err
	}
	// The model came before the name, or not at all.
	sub := jsontext.NewScanner(model, ErrPipeline, nil)
	return readModel(&sub, name)
}

// readModel reads the model value of the detector called name.
func readModel(s *jsontext.Scanner, name string) (Detector, error) {
	switch name {
	case "ifor":
		f, err := iforest.ReadJSON(s)
		if err != nil {
			return nil, err
		}
		return f, nil
	case "ocsvm":
		raw, err := s.Raw()
		if err != nil {
			return nil, err
		}
		var m ocsvm.Model
		if err := json.Unmarshal(raw, &m); err != nil {
			return nil, err
		}
		return &m, nil
	default:
		return nil, fmt.Errorf("core: unknown detector %q: %w", name, ErrPipeline)
	}
}
