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
// keyed by the same runKey identity the store uses), checksummed wire
// frames (internal/wire), and a degradation ladder that falls back to
// local computation after consecutive transport failures. The proof
// layer is FaultTripper, the network analogue of store.FaultFS.
package service

import (
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

// Request kinds, matching the runner's three memo spaces.
const (
	KindRun     = "run"
	KindAlone   = "alone"
	KindProfile = "profile"
)

// RunRequest is the serialized form of one fully keyed experiment
// lookup. Scale is the complete sim.Scale struct, not a name, so a
// server never silently serves a differently-parameterised scale; Key
// is the canonical store key the client's runner computed, which the
// server recomputes from the other fields and verifies — config or
// version skew surfaces as an explicit mismatch, never a wrong result.
type RunRequest struct {
	Kind      string              `json:"kind"`
	Key       string              `json:"key"`
	Scale     sim.Scale           `json:"scale"`
	Seed      uint64              `json:"seed"`
	Fidelity  string              `json:"fidelity"`
	Group     workload.Group      `json:"group,omitempty"`     // KindRun
	Scheme    sim.SchemeKind      `json:"scheme,omitempty"`    // KindRun
	Threshold float64             `json:"threshold,omitempty"` // KindRun
	Variant   experiments.Variant `json:"variant,omitempty"`   // KindRun
	Benchmark string              `json:"benchmark,omitempty"` // KindAlone/KindProfile
	Cores     int                 `json:"cores,omitempty"`     // KindAlone/KindProfile
}
