package ocsvm

import (
	"encoding/json"
	"fmt"
)

// jsonModel is the serialized form of a fitted one-class SVM.
type jsonModel struct {
	Kernel  jsonKernel  `json:"kernel"`
	Support [][]float64 `json:"support"`
	Alpha   []float64   `json:"alpha"`
	Rho     float64     `json:"rho"`
	Dim     int         `json:"dim"`
}

// jsonKernel encodes the kernel by name plus parameters; only the built-in
// kernels round-trip (a custom Kernel implementation cannot be restored
// from JSON).
type jsonKernel struct {
	Name   string  `json:"name"`
	Gamma  float64 `json:"gamma,omitempty"`
	Degree int     `json:"degree,omitempty"`
	Coef0  float64 `json:"coef0,omitempty"`
}

func encodeKernel(k Kernel) (jsonKernel, error) {
	switch kk := k.(type) {
	case RBF:
		return jsonKernel{Name: "rbf", Gamma: kk.Gamma}, nil
	case Linear:
		return jsonKernel{Name: "linear"}, nil
	case Poly:
		return jsonKernel{Name: "poly", Gamma: kk.Gamma, Degree: kk.Degree, Coef0: kk.Coef0}, nil
	default:
		return jsonKernel{}, fmt.Errorf("ocsvm: kernel %q is not serializable: %w", k.Name(), ErrOptions)
	}
}

func decodeKernel(jk jsonKernel) (Kernel, error) {
	switch jk.Name {
	case "rbf":
		return RBF{Gamma: jk.Gamma}, nil
	case "linear":
		return Linear{}, nil
	case "poly":
		return Poly{Gamma: jk.Gamma, Degree: jk.Degree, Coef0: jk.Coef0}, nil
	default:
		return nil, fmt.Errorf("ocsvm: unknown kernel %q: %w", jk.Name, ErrOptions)
	}
}

// MarshalJSON serializes the model; it fails on a custom kernel.
func (m *Model) MarshalJSON() ([]byte, error) {
	jk, err := encodeKernel(m.kernel)
	if err != nil {
		return nil, err
	}
	return json.Marshal(jsonModel{
		Kernel:  jk,
		Support: m.supportX,
		Alpha:   m.alpha,
		Rho:     m.rho,
		Dim:     m.dim,
	})
}

// UnmarshalJSON replaces m with the model serialized by MarshalJSON; a
// model that does not decode leaves m as it was.
func (m *Model) UnmarshalJSON(data []byte) error {
	var jm jsonModel
	if err := json.Unmarshal(data, &jm); err != nil {
		return fmt.Errorf("ocsvm: unmarshal: %w", err)
	}
	if len(jm.Support) == 0 || len(jm.Support) != len(jm.Alpha) || jm.Dim <= 0 {
		return fmt.Errorf("ocsvm: unmarshal incomplete model: %w", ErrOptions)
	}
	kernel, err := decodeKernel(jm.Kernel)
	if err != nil {
		return err
	}
	for i, sv := range jm.Support {
		if len(sv) != jm.Dim {
			return fmt.Errorf("ocsvm: support vector %d has dim %d, want %d: %w", i, len(sv), jm.Dim, ErrOptions)
		}
	}
	*m = Model{kernel: kernel, supportX: jm.Support, alpha: jm.Alpha, rho: jm.Rho, dim: jm.Dim}
	return nil
}
