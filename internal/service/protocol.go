// Package service is the distributed experiment service (DESIGN.md
// §13): an HTTP front-end over experiments.Runner so sweeps can be
// sharded across machines and many clients can share one warm result
// cache. The Server (cmd/expd) accepts fully keyed run requests,
// deduplicates in-flight work through the runner's singleflight memo
// and the internal/store disk layer, and returns memoised sim.Results;
// the Client implements experiments.Remote so every binary opts in
// with -server=URL.
//
// Robustness is the contract, mirroring internal/store's: a dead,
// slow or corrupting server can only cost local recomputation, never
// an error, an unbounded stall or a byte of output difference. The
// client enforces it with per-request deadlines, bounded exponential
// backoff with jitter, idempotent retries (requests are pure lookups
// keyed by the same canonical key the store uses), checksummed wire
// frames (internal/wire), and a degradation ladder that falls back to
// local computation after consecutive transport failures. The proof
// layer is FaultTripper, the network analogue of store.FaultFS.
package service

import (
	"slices"

	"repro/internal/experiments"
	"repro/internal/sim"
	"repro/internal/wire"
	"repro/internal/workload"
)

// ProtocolVersion is the wire format. Client and server verify it on
// every exchange; a mismatch is a permanent (non-retried) failure that
// degrades the client to local computation.
const ProtocolVersion = 2

// frameFormat is the wire frame family of /v1/run bodies: the request
// frame carries a RunRequest, the response frame the result, both
// under the request's canonical key.
var frameFormat = wire.NewFormat("coopserv", ProtocolVersion)

// contentType labels both /v1/run bodies.
const contentType = "application/x-coop-frame"

// RunRequest is the serialized form of one experiments.Request, plus
// the runner identity (scale, seed) it is resolved under. Kind and
// Fidelity travel as their names (experiments.Kind.String,
// sim.Fidelity.String). Scale is the complete sim.Scale struct, not a
// name, so a server never silently serves a differently-parameterised
// scale; Key is the canonical store key the client's runner computed,
// which the server recomputes from the other fields and verifies —
// config or version skew surfaces as an explicit mismatch, never a
// wrong result.
type RunRequest struct {
	Kind      string              `json:"kind"`
	Key       string              `json:"key"`
	Scale     sim.Scale           `json:"scale"`
	Seed      uint64              `json:"seed"`
	Fidelity  string              `json:"fidelity"`
	Group     workload.Group      `json:"group,omitempty"`     // run
	Scheme    sim.SchemeKind      `json:"scheme,omitempty"`    // run
	Threshold float64             `json:"threshold,omitempty"` // run
	Variant   experiments.Variant `json:"variant,omitempty"`   // run
	Benchmark string              `json:"benchmark,omitempty"` // alone, profile
	Cores     int                 `json:"cores,omitempty"`     // alone, profile
}

// job converts the request into the runner's job shape; an unknown
// kind or fidelity name is an error.
func (req RunRequest) job() (experiments.Request, error) {
	kind, err := experiments.ParseKind(req.Kind)
	if err != nil {
		return experiments.Request{}, err
	}
	fid, err := sim.ParseFidelity(req.Fidelity)
	if err != nil {
		return experiments.Request{}, err
	}
	return experiments.Request{
		Kind: kind, Group: req.Group, Scheme: req.Scheme, Threshold: req.Threshold,
		Variant: req.Variant, Benchmark: req.Benchmark, Cores: req.Cores, Fidelity: fid,
	}, nil
}

// canonicalGroup reports whether g is a group of the workload tables
// with exactly its benchmark list. Keys name a group run's group but
// not its benchmarks, so a request with any other list would be
// simulated and published under that group's key.
func canonicalGroup(g workload.Group) bool {
	want, err := workload.FindGroup(g.Name)
	return err == nil && slices.Equal(want.Benchmarks, g.Benchmarks)
}
