package app

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"time"

	"servicefridge/internal/sim"
)

// This file is the JSON codec for application specs, so downstream users
// can profile their own microservice application (the offline-analysis
// stage of Figure 9) and feed it to the MCF calculator and ServiceFridge
// without writing Go. Times are expressed in fractional milliseconds, the
// unit the paper uses throughout.

// specJSON is the serialized form of a Spec.
type specJSON struct {
	Services []serviceJSON `json:"services"`
	Regions  []regionJSON  `json:"regions"`
}

type serviceJSON struct {
	Name     string  `json:"name"`
	Kind     string  `json:"kind"`
	CPUShare float64 `json:"cpuShare"`
	Jitter   float64 `json:"jitter,omitempty"`
	DB       string  `json:"db,omitempty"`
}

type regionJSON struct {
	Name      string       `json:"name"`
	API       string       `json:"api"`
	APIExecMs float64      `json:"apiExecMs"`
	Stages    [][]callJSON `json:"stages"`
}

type callJSON struct {
	Service     string  `json:"service"`
	Times       int     `json:"times"`
	ExecMs      float64 `json:"execMs"`
	Concurrency int     `json:"concurrency,omitempty"`
}

func kindToString(k Kind) string {
	switch k {
	case KindAPI:
		return "api"
	case KindFunction:
		return "function"
	case KindDatabase:
		return "database"
	case KindInfra:
		return "infra"
	}
	return ""
}

func kindFromString(s string) (Kind, error) {
	switch s {
	case "api":
		return KindAPI, nil
	case "function":
		return KindFunction, nil
	case "database":
		return KindDatabase, nil
	case "infra":
		return KindInfra, nil
	default:
		return 0, fmt.Errorf("app: unknown service kind %q", s)
	}
}

// MarshalJSON encodes the spec; services and regions keep registration
// order so round-trips are stable.
func (s *Spec) MarshalJSON() ([]byte, error) {
	out := specJSON{}
	for _, name := range s.serviceOrder {
		ms := s.services[name]
		out.Services = append(out.Services, serviceJSON{
			Name:     ms.Name,
			Kind:     kindToString(ms.Kind),
			CPUShare: ms.CPUShare,
			Jitter:   ms.Jitter,
			DB:       ms.DB,
		})
	}
	for _, rn := range s.regionOrder {
		r := s.regions[rn]
		rj := regionJSON{
			Name:      r.Name,
			API:       r.API,
			APIExecMs: float64(r.APIExec) / float64(time.Millisecond),
		}
		for _, st := range r.Stages {
			var stage []callJSON
			for _, c := range st {
				stage = append(stage, callJSON{
					Service:     c.Service,
					Times:       c.Times,
					ExecMs:      float64(c.Exec) / float64(time.Millisecond),
					Concurrency: c.Concurrency,
				})
			}
			rj.Stages = append(rj.Stages, stage)
		}
		out.Regions = append(out.Regions, rj)
	}
	return json.MarshalIndent(out, "", "  ")
}

// WriteTo serializes the spec as JSON.
func (s *Spec) WriteTo(w io.Writer) (int64, error) {
	b, err := s.MarshalJSON()
	if err != nil {
		return 0, err
	}
	n, err := w.Write(b)
	return int64(n), err
}

// ParseSpec decodes a JSON application spec, applying the same validation
// as the programmatic builders. Validation failures return errors (the
// input is external data, unlike the in-code profiles, which panic).
// Beyond the builders' checks, every millisecond field must be finite and
// fit a time.Duration, an API's own work must not be negative, a call's
// must be positive, every execution-time distribution a service's
// jitter makes must have finite parameters (a run would otherwise draw
// negative or NaN demands and crash), and each call's times × execMs and
// each region's sum of them per service must fit a time.Duration (the
// weights the MCF ranking reads would otherwise wrap negative).
func ParseSpec(data []byte) (spec *Spec, err error) {
	var in specJSON
	if err := json.Unmarshal(data, &in); err != nil {
		return nil, fmt.Errorf("app: parsing spec: %w", err)
	}
	if len(in.Services) == 0 {
		return nil, fmt.Errorf("app: spec has no services")
	}
	// The builders panic on invalid data; convert to errors here.
	defer func() {
		if r := recover(); r != nil {
			spec = nil
			err = fmt.Errorf("app: invalid spec: %v", r)
		}
	}()
	s := NewSpec()
	for _, sj := range in.Services {
		kind, kerr := kindFromString(sj.Kind)
		if kerr != nil {
			return nil, kerr
		}
		s.AddService(Microservice{
			Name:     sj.Name,
			Kind:     kind,
			CPUShare: sj.CPUShare,
			Jitter:   sj.Jitter,
			DB:       sj.DB,
		})
	}
	for _, rj := range in.Regions {
		where := fmt.Sprintf("region %q", rj.Name)
		apiExec, err := msDuration(where, "apiExecMs", rj.APIExecMs)
		if err != nil {
			return nil, err
		}
		if rj.APIExecMs < 0 {
			return nil, fmt.Errorf("app: %s apiExecMs %v must not be negative", where, rj.APIExecMs)
		}
		r := Region{Name: rj.Name, API: rj.API, APIExec: apiExec}
		for _, stage := range rj.Stages {
			var st Stage
			for _, c := range stage {
				where := fmt.Sprintf("region %q call to %q", rj.Name, c.Service)
				exec, err := msDuration(where, "execMs", c.ExecMs)
				if err != nil {
					return nil, err
				}
				if c.ExecMs <= 0 {
					return nil, fmt.Errorf("app: %s execMs %v must be positive", where, c.ExecMs)
				}
				st = append(st, Call{
					Service:     c.Service,
					Times:       c.Times,
					Exec:        exec,
					Concurrency: c.Concurrency,
				})
			}
			r.Stages = append(r.Stages, st)
		}
		added := s.AddRegion(r)
		if err := checkExecDists(added); err != nil {
			return nil, err
		}
		if err := checkWeights(added); err != nil {
			return nil, err
		}
	}
	return s, nil
}

// msDuration converts a millisecond field to a time.Duration, truncating
// as the codec always has, once it has checked that the value is finite
// and fits; where names the field's region or call for the error.
func msDuration(where, field string, ms float64) (time.Duration, error) {
	ns := ms * float64(time.Millisecond)
	if !(ns >= math.MinInt64 && ns < math.MaxInt64) {
		return 0, fmt.Errorf("app: %s %s %v must be finite and fit a time.Duration (max %v)",
			where, field, ms, time.Duration(math.MaxInt64))
	}
	return time.Duration(ns), nil
}

// checkExecDists rejects a region whose API job or calls draw from a
// log-normal with non-finite parameters: a jitter so large that σ²
// overflows makes every draw NaN.
func checkExecDists(r *Region) error {
	bad := func(d sim.LogNormalDist) bool {
		mu, sigma := d.Params()
		return math.IsNaN(mu) || math.IsInf(mu, 0) || math.IsNaN(sigma) || math.IsInf(sigma, 0)
	}
	if bad(r.apiExec) {
		return fmt.Errorf("app: service %q jitter %v gives region %q's API job a log-normal with non-finite parameters",
			r.api.Name, r.api.Jitter, r.Name)
	}
	for _, st := range r.Stages {
		for _, c := range st {
			if bad(c.exec) {
				return fmt.Errorf("app: service %q jitter %v gives region %q's call a log-normal with non-finite parameters",
					c.Service, c.callee.Jitter, r.Name)
			}
		}
	}
	return nil
}

// checkWeights rejects a region in which a call's weight (Call.Weight,
// times × exec) or the sum of its weights for one service
// (Region.CallTo) does not fit a time.Duration: both would wrap negative
// and rank the service with a negative MCF.
func checkWeights(r *Region) error {
	sums := make(map[string]time.Duration)
	for _, st := range r.Stages {
		for _, c := range st {
			if c.Exec > time.Duration(math.MaxInt64)/time.Duration(c.Times) {
				return fmt.Errorf("app: region %q call to %q: times %d × execMs %v overflows a time.Duration (max %v)",
					r.Name, c.Service, c.Times, float64(c.Exec)/float64(time.Millisecond), time.Duration(math.MaxInt64))
			}
			// Both terms are non-negative, so a wrapped sum reads negative.
			sum := sums[c.Service] + c.Weight()
			if sum < 0 {
				return fmt.Errorf("app: region %q call to %q: the region's calls to %q total over a time.Duration (max %v)",
					r.Name, c.Service, c.Service, time.Duration(math.MaxInt64))
			}
			sums[c.Service] = sum
		}
	}
	return nil
}

// ReadSpec decodes a JSON application spec from r.
func ReadSpec(r io.Reader) (*Spec, error) {
	data, err := io.ReadAll(r)
	if err != nil {
		return nil, fmt.Errorf("app: reading spec: %w", err)
	}
	return ParseSpec(data)
}
