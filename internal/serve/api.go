package serve

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"

	"mosaic/internal/serve/registry"
)

// Wire types and strict decoding for the JSON API. Every request body is
// decoded with DisallowUnknownFields and explicitly validated: floats must
// be finite (encoding/json already rejects literal NaN/Inf tokens, but
// strings like "1e999" overflow and validation catches the rest), pointer
// fields distinguish absent from zero, and a body after the JSON value is
// an error. Malformed input is a 400, never a panic.

// maxBodyBytes bounds request bodies; specs and predict requests are tiny.
const maxBodyBytes = 1 << 20

// apiError is the uniform error envelope.
type apiError struct {
	Error string `json:"error"`
}

// decodeStrict decodes exactly one JSON value from r into v.
func decodeStrict(r io.Reader, v any) error {
	dec := json.NewDecoder(io.LimitReader(r, maxBodyBytes))
	dec.DisallowUnknownFields()
	if err := dec.Decode(v); err != nil {
		return fmt.Errorf("invalid JSON: %w", err)
	}
	// Trailing content after the value is malformed input, not a second
	// message. dec.More reports false before a stray '}' or ']', so only
	// end of input is accepted.
	if _, err := dec.Token(); err != io.EOF {
		return errors.New("invalid JSON: trailing data after request body")
	}
	return nil
}

// predictRequest is the /v1/predict body. H, M, C are pointers so "h": 0
// and a missing h are distinguishable — a layout name supplies the inputs
// when they are absent.
type predictRequest struct {
	Workload string   `json:"workload"`
	Platform string   `json:"platform"`
	Model    string   `json:"model,omitempty"`
	Layout   string   `json:"layout,omitempty"`
	H        *float64 `json:"h,omitempty"`
	M        *float64 `json:"m,omitempty"`
	C        *float64 `json:"c,omitempty"`
}

// validate maps the wire form to a registry request.
func (p *predictRequest) validate() (registry.Request, error) {
	var req registry.Request
	if p.Workload == "" {
		return req, errors.New("workload is required")
	}
	if p.Platform == "" {
		return req, errors.New("platform is required")
	}
	req.Workload, req.Platform, req.Model = p.Workload, p.Platform, p.Model
	explicit := p.H != nil || p.M != nil || p.C != nil
	switch {
	case p.Layout != "" && explicit:
		return req, errors.New("give either a layout name or explicit h/m/c inputs, not both")
	case p.Layout != "":
		req.Layout = p.Layout
		return req, nil
	case !explicit:
		return req, errors.New("either a layout name or h, m, and c inputs are required")
	}
	if p.H == nil || p.M == nil || p.C == nil {
		return req, errors.New("h, m, and c must all be given")
	}
	// A fixed order makes the error for several bad inputs deterministic.
	names := [...]string{"h", "m", "c"}
	for i, v := range [...]float64{*p.H, *p.M, *p.C} {
		if !finite(v) {
			return req, fmt.Errorf("%s must be finite", names[i])
		}
		if v < 0 {
			return req, fmt.Errorf("%s must be non-negative", names[i])
		}
	}
	req.H, req.M, req.C = *p.H, *p.M, *p.C
	return req, nil
}

// finite reports whether every value is neither NaN nor ±Inf — what JSON
// can carry.
func finite(vs ...float64) bool {
	for _, v := range vs {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return false
		}
	}
	return true
}

// jobRequest is the /v1/jobs body — the spec plus nothing else.
type jobRequest struct {
	Workload string        `json:"workload"`
	Platform string        `json:"platform"`
	Proto    string        `json:"proto,omitempty"`
	Sampling *SamplingSpec `json:"sampling,omitempty"`
	Mode     string        `json:"mode,omitempty"`
	Adaptive *AdaptiveSpec `json:"adaptive,omitempty"`
	Train    bool          `json:"train,omitempty"`
}

// validate maps the wire form to a job spec.
func (j *jobRequest) validate() (JobSpec, error) {
	var spec JobSpec
	if j.Workload == "" {
		return spec, errors.New("workload is required")
	}
	if j.Platform == "" {
		return spec, errors.New("platform is required")
	}
	spec.Workload, spec.Platform, spec.Proto, spec.Train = j.Workload, j.Platform, j.Proto, j.Train
	if _, err := spec.proto(); err != nil {
		return spec, err
	}
	spec.Mode = j.Mode
	mode, err := spec.mode()
	if err != nil {
		return spec, err
	}
	if j.Adaptive != nil {
		if mode != "adaptive" {
			return spec, errors.New("adaptive block requires mode adaptive")
		}
		a := *j.Adaptive
		if math.IsNaN(a.ErrorTarget) || math.IsInf(a.ErrorTarget, 0) {
			return spec, errors.New("adaptive.errorTarget must be finite")
		}
		if a.ErrorTarget < 0 || a.ErrorTarget >= 1 {
			return spec, errors.New("adaptive.errorTarget must be in [0, 1)")
		}
		if a.Budget < 0 {
			return spec, errors.New("adaptive.budget must be non-negative")
		}
		spec.Adaptive = &a
	}
	if j.Sampling != nil {
		s := *j.Sampling
		if s.Period < 0 || s.MeasureLen < 0 || s.WarmupLen < 0 || s.PrologueLen < 0 {
			return spec, errors.New("sampling parameters must be non-negative")
		}
		if s.Period > 0 && s.MeasureLen <= 0 {
			return spec, errors.New("sampling with a period needs a positive measureLen")
		}
		if s.Period > 0 && s.MeasureLen+s.WarmupLen > s.Period {
			return spec, errors.New("sampling measureLen+warmupLen must fit in the period")
		}
		if s.Default && (s.Period != 0 || s.MeasureLen != 0 || s.WarmupLen != 0 || s.PrologueLen != 0) {
			return spec, errors.New("sampling.default excludes explicit parameters")
		}
		spec.Sampling = s
	}
	return spec, nil
}
