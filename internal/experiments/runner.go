// Package experiments regenerates every table and figure of the
// paper's evaluation (Tables 1-4, Figures 5-16) plus the ablations
// listed in DESIGN.md §7. A Runner memoises simulation runs so that
// figures sharing the same underlying experiments (e.g. Figures 5-7 all
// consume the fourteen two-core runs per scheme) execute each run once,
// and fans independent runs out over a bounded worker pool so that the
// full reproduction scales with the host's cores (DESIGN.md §6).
package experiments

import (
	"context"
	"fmt"
	"runtime"
	"slices"
	"strconv"
	"sync"
	"sync/atomic"

	"repro/internal/ckpt"
	"repro/internal/core"
	"repro/internal/partition"
	"repro/internal/sim"
	"repro/internal/store"
	"repro/internal/workload"
)

// DefaultThreshold is the paper's operating point for Cooperative
// Partitioning's T parameter (Section 5.1).
const DefaultThreshold = sim.DefaultThreshold

// Thresholds is the sweep of Figures 11-13.
var Thresholds = []float64{0, 0.01, 0.05, 0.10, 0.20}

// Config parameterises a Runner.
type Config struct {
	Scale sim.Scale
	Seed  uint64
	// Threshold for CoopPart/DynCPE runs; DefaultThreshold if zero.
	Threshold float64
	// Workers bounds the number of simulations RunAll executes
	// concurrently; GOMAXPROCS if zero. Results are bit-identical for
	// every worker count: each simulation is an independent
	// single-goroutine run keyed only by its configuration.
	Workers int
	// Fidelity is the RNG-walk tier every figure/table/ablation method
	// of the runner executes at. The zero value is sim.FidelityExact —
	// the statistical FastForward tier is opt-in at every layer and
	// memoised under distinct keys, so an exact result is never served
	// to a fast-forward request or vice versa.
	Fidelity sim.Fidelity
	// Store is the persistent result cache layered under the in-memory
	// memo (nil = memory only): lookups go memory → disk → simulate,
	// and every simulated result is published back. Results are
	// bit-identical either way — the wire codec round-trips every
	// field exactly — and a store fault can only cost recomputation,
	// never correctness (the store degrades internally and never fails
	// a caller).
	Store *store.Store
	// Remote is an optional experiment server layered between the disk
	// store and local simulation (nil = compute locally): lookups go
	// memory → disk → remote → simulate. Like the store, the remote
	// layer can only save work, never change bytes or fail a run — a
	// Remote that returns ok=false (server down, degraded, mismatched)
	// just falls through to local computation, and results fetched
	// remotely are published into Store so later runs are serverless-
	// warm. service.Client is the production implementation.
	Remote Remote
	// Checkpoints executes every simulation the runner performs
	// locally (DESIGN.md §14): warm-up prefixes are computed once per
	// identity and shared, and with a checkpoint store attached,
	// killed runs resume mid-measured-region. nil gets a memory-only
	// manager (in-process warm-up sharing, no mid-run checkpoints) —
	// results are bit-identical in every configuration.
	Checkpoints *ckpt.Manager
}

// Remote is the client surface of the distributed experiment service
// (DESIGN.md §13), defined here so experiments does not depend on the
// transport. Every method receives the canonical store key of the run
// — the same identity the disk cache uses — plus the full request
// fields, so the server can recompute and verify the key (a mismatch
// means config or version skew, never a wrong answer). ok=false means
// the remote layer is unavailable for this request; the caller
// computes locally. Implementations must be safe for concurrent use
// and must never block unboundedly — a dead server has to degrade to
// ok=false in bounded time.
type Remote interface {
	RemoteRun(key string, sc sim.Scale, seed uint64, g workload.Group,
		scheme sim.SchemeKind, threshold float64, v Variant, fid sim.Fidelity) (*sim.Results, bool)
	RemoteAlone(key string, sc sim.Scale, seed uint64,
		benchmark string, cores int, fid sim.Fidelity) (*sim.Results, bool)
	RemoteProfile(key string, sc sim.Scale, seed uint64,
		benchmark string, cores int, fid sim.Fidelity) (partition.CoreProfile, bool)
}

// Variant names a run-configuration mutation of the ablation and
// extension studies (DESIGN.md §7). Variants are part of the memo key,
// so an ablated run never aliases the plain run it is compared against.
type Variant string

const (
	// VariantNone is the unmodified scheme.
	VariantNone Variant = ""
	// VariantRecipientMissOnly advances takeover only on recipient
	// misses (UCP-style convergence).
	VariantRecipientMissOnly Variant = "recipient-miss-only"
	// VariantNoGating partitions identically but never powers ways off.
	VariantNoGating Variant = "no-gating"
	// VariantRandomVictim fills into a pseudo-random way of the owner's
	// allocation instead of the LRU way.
	VariantRandomVictim Variant = "random-victim"
	// VariantDrowsy enables the drowsy-cache extension (paper Section 6).
	VariantDrowsy Variant = "drowsy"
)

// applyVariant mutates cfg for the named variant.
func applyVariant(cfg *sim.RunConfig, v Variant) error {
	switch v {
	case VariantNone:
	case VariantRecipientMissOnly:
		cfg.RecipientMissOnly = true
	case VariantNoGating:
		cfg.DisableGating = true
	case VariantRandomVictim:
		cfg.RandomVictim = true
	case VariantDrowsy:
		d := core.DefaultDrowsyConfig()
		cfg.Drowsy = &d
	default:
		return fmt.Errorf("experiments: unknown variant %q", v)
	}
	return nil
}

// Kind names what a Request asks the runner for. The zero value is a
// group run, so a Request literal without a Kind still means one.
type Kind uint8

const (
	// KindRun is one workload group under one scheme: a bar of Figs 5-16.
	KindRun Kind = iota
	// KindAlone is one benchmark running by itself on the LLC geometry
	// of a Cores-sized group: a denominator of Equation 1.
	KindAlone
	// KindProfile is KindAlone with Dynamic CPE's per-phase utility
	// capture on: the paper's offline profiling step.
	KindProfile
)

var kindNames = [...]string{KindRun: "run", KindAlone: "alone", KindProfile: "profile"}

// String is the kind's name in store keys and on the wire.
func (k Kind) String() string { return kindNames[k] }

// ParseKind is the inverse of Kind.String.
func ParseKind(s string) (Kind, error) {
	for k, name := range kindNames {
		if name == s {
			return Kind(k), nil
		}
	}
	return 0, fmt.Errorf("experiments: unknown kind %q", s)
}

// Payload is the part of a lookup's Results that a store entry and a
// wire response of kind k carry: the whole Results, or for a profile
// only its CoreProfile.
func (k Kind) Payload(res *sim.Results) any {
	if k == KindProfile {
		return &res.Profile
	}
	return res
}

// Request names one memoisable job. Group runs read Group, Scheme,
// Threshold and Variant; solo runs and profiles read Benchmark and
// Cores. Threshold 0 is an explicit zero threshold, not the runner's
// default. Fidelity is explicit — the zero value is sim.FidelityExact,
// never the runner's default — so hand-built requests stay on the
// bit-identical tier unless they opt out; the runner's own request
// builders stamp its configured fidelity.
type Request struct {
	Kind      Kind
	Group     workload.Group
	Scheme    sim.SchemeKind
	Threshold float64
	Variant   Variant
	Benchmark string
	Cores     int
	Fidelity  sim.Fidelity
}

// solo builds the solo-run or profile request of one benchmark on the
// LLC geometry of cores-sized groups.
func solo(kind Kind, benchmark string, cores int, fid sim.Fidelity) Request {
	return Request{Kind: kind, Benchmark: benchmark, Cores: cores, Fidelity: fid}
}

// memoKey is a request's identity in the runner's memo: every field Key
// renders except the runner-wide scale and seed, as a comparable value,
// so a memo hit renders no string.
type memoKey struct {
	kind      Kind
	group     string
	scheme    sim.SchemeKind
	threshold float64
	variant   Variant
	benchmark string
	cores     int
	fidelity  sim.Fidelity
}

func (req Request) memoKey() memoKey {
	return memoKey{req.Kind, req.Group.Name, req.Scheme, req.Threshold, req.Variant,
		req.Benchmark, req.Cores, req.Fidelity}
}

// Runner executes and memoises simulation runs. All methods are safe
// for concurrent use: each distinct run executes exactly once, with
// duplicate requests blocking on the in-flight execution instead of
// racing or serialising behind a global lock.
type Runner struct {
	cfg     Config
	workers int
	// scaleFP fingerprints every field of the scale configuration into
	// the persistent-store key space, so two scales that differ in any
	// parameter never alias even if they share a name.
	scaleFP string
	sims    atomic.Uint64
	memo    flight[memoKey, *sim.Results]
}

// NewRunner builds a Runner; a zero-value Config gets the test scale,
// seed 1, the paper's threshold and one worker per CPU.
func NewRunner(cfg Config) *Runner {
	if cfg.Scale.Name == "" {
		cfg.Scale = sim.TestScale()
	}
	if cfg.Seed == 0 {
		cfg.Seed = 1
	}
	if cfg.Threshold == 0 {
		cfg.Threshold = DefaultThreshold
	}
	workers := cfg.Workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if cfg.Checkpoints == nil {
		cfg.Checkpoints = ckpt.New(ckpt.Options{})
	}
	r := &Runner{cfg: cfg, workers: workers}
	// The fingerprint is always computed: the disk store, the remote
	// layer and the exported key strings all address runs by it, and
	// one SHA-256 of the Scale JSON per runner is free.
	r.scaleFP = store.Fingerprint(cfg.Scale)
	return r
}

// Key renders the canonical store identity of a request: the string
// the persistent cache addresses it by, which the service protocol
// also sends with every request for the server to recompute and
// verify, so client and server can never silently disagree about what
// a result is for. Seed and the full scale fingerprint are explicit —
// the in-memory memo is scoped to one runner (one scale, one seed),
// the disk store is shared by every process pointed at the directory.
// Threshold uses the shortest exact float form, so the explicit-zero
// sentinel and the default threshold stay distinct (DESIGN.md §3).
// The strings are pinned (service's TestKeysAndFramesAreStable):
// changing one orphans every existing store.
func (r *Runner) Key(req Request) string {
	if req.Kind == KindRun {
		return fmt.Sprintf("run|scale=%s|seed=%d|group=%s|scheme=%s|threshold=%s|variant=%s|fidelity=%s",
			r.scaleFP, r.cfg.Seed, req.Group.Name, req.Scheme,
			strconv.FormatFloat(req.Threshold, 'g', -1, 64), req.Variant, req.Fidelity)
	}
	return fmt.Sprintf("%s|scale=%s|seed=%d|benchmark=%s|cores=%d|fidelity=%s",
		req.Kind, r.scaleFP, r.cfg.Seed, req.Benchmark, req.Cores, req.Fidelity)
}

// Scale returns the runner's simulation scale.
func (r *Runner) Scale() sim.Scale { return r.cfg.Scale }

// scaleFor returns the scale a request at fid simulates under. The LLC
// sample stride is meaningful only on the set-sampled tier (NewSystem
// rejects it elsewhere), so a mixed-tier sweep — ValidateTiers runs
// exact, fast-forward and set-sampled through one runner — clears it
// for the other tiers instead of erroring. Store keys and the remote
// protocol keep using the runner's unadjusted scale; the server applies
// the same per-request adjustment, so the two sides never disagree.
func (r *Runner) scaleFor(fid sim.Fidelity) sim.Scale {
	sc := r.cfg.Scale
	if fid != sim.FidelitySetSampled {
		sc.SampleStride = 0
	}
	return sc
}

// Simulations returns how many simulator executions the runner has
// actually performed (as opposed to answered from the memo) — the
// observability hook the memoisation and singleflight tests pin.
func (r *Runner) Simulations() uint64 { return r.sims.Load() }

// Checkpoints exposes the checkpoint manager (never nil), for stats
// reporting and the warm-up exactly-once assertions.
func (r *Runner) Checkpoints() *ckpt.Manager { return r.cfg.Checkpoints }

// lookup resolves one request through the ladder every result takes:
// memo, disk store, remote, then checkpointed simulation. A result the
// store did not answer is published into it. Fidelity is part of every
// key (like the threshold sentinel, regression-pinned by
// TestFidelityMemoisedDistinctly), so one tier's result is never served
// to another. A profile's answer is in the Results' Profile field.
func (r *Runner) lookup(req Request) (*sim.Results, error) {
	return r.memo.Do(req.memoKey(), func() (*sim.Results, error) {
		key := r.Key(req)
		// A disk or remote hit on a DynCPE run also skips the profile
		// runs its simulation would have needed.
		if st := r.cfg.Store; st != nil {
			var cached sim.Results
			if st.Get(key, req.Kind.Payload(&cached)) {
				return &cached, nil
			}
		}
		res, ok := r.fetch(key, req)
		if !ok {
			cfg, err := r.runConfig(req)
			if err != nil {
				return nil, err
			}
			r.sims.Add(1)
			if res, err = r.cfg.Checkpoints.Run(cfg); err != nil {
				return nil, err
			}
		}
		if st := r.cfg.Store; st != nil {
			st.Put(key, req.Kind.Payload(res))
		}
		return res, nil
	})
}

// fetch asks the remote layer for a request; ok=false (no remote, or
// the remote cannot answer) means compute locally.
func (r *Runner) fetch(key string, req Request) (*sim.Results, bool) {
	rem := r.cfg.Remote
	if rem == nil {
		return nil, false
	}
	sc, seed := r.cfg.Scale, r.cfg.Seed
	switch req.Kind {
	case KindAlone:
		return rem.RemoteAlone(key, sc, seed, req.Benchmark, req.Cores, req.Fidelity)
	case KindProfile:
		p, ok := rem.RemoteProfile(key, sc, seed, req.Benchmark, req.Cores, req.Fidelity)
		return &sim.Results{Profile: p}, ok
	default:
		return rem.RemoteRun(key, sc, seed, req.Group, req.Scheme, req.Threshold, req.Variant, req.Fidelity)
	}
}

// runConfig builds the simulation of a request no layer above
// simulation answered. A DynCPE group run first resolves its
// benchmarks' profiles through the same ladder, at its own tier.
func (r *Runner) runConfig(req Request) (sim.RunConfig, error) {
	sc := r.scaleFor(req.Fidelity)
	switch req.Kind {
	case KindAlone:
		return sim.AloneConfig(req.Benchmark, sc, req.Cores, r.cfg.Seed, req.Fidelity)
	case KindProfile:
		return sim.ProfileConfig(req.Benchmark, sc, req.Cores, r.cfg.Seed, req.Fidelity)
	}
	cfg := sim.RunConfig{
		Scale:     sc,
		Scheme:    req.Scheme,
		Group:     req.Group,
		Threshold: sim.EncodeThreshold(req.Threshold),
		Seed:      r.cfg.Seed,
		Fidelity:  req.Fidelity,
	}
	if err := applyVariant(&cfg, req.Variant); err != nil {
		return sim.RunConfig{}, err
	}
	if req.Scheme == sim.DynCPE {
		cores := len(req.Group.Benchmarks)
		for _, b := range req.Group.Benchmarks {
			p, err := r.lookup(solo(KindProfile, b, cores, req.Fidelity))
			if err != nil {
				return sim.RunConfig{}, err
			}
			cfg.Profiles = append(cfg.Profiles, p.Profile)
		}
	}
	return cfg, nil
}

// RunGroup executes (memoised) one group under one scheme at the
// runner's threshold and fidelity.
func (r *Runner) RunGroup(g workload.Group, scheme sim.SchemeKind) (*sim.Results, error) {
	return r.lookup(Request{Group: g, Scheme: scheme, Threshold: r.cfg.Threshold, Fidelity: r.cfg.Fidelity})
}

// WeightedSpeedup computes Equation 1 for one run. The solo
// denominators come from the run's own RNG-walk tier (res.Fidelity):
// a fast-forward numerator over an exact denominator would fold the
// tier delta into every speedup.
func (r *Runner) WeightedSpeedup(res *sim.Results) (float64, error) {
	alone := make(map[string]float64, len(res.Benchmarks))
	for _, b := range res.Benchmarks {
		s, err := r.lookup(solo(KindAlone, b, len(res.Benchmarks), res.Fidelity))
		if err != nil {
			return 0, err
		}
		alone[b] = s.IPC[0]
	}
	return res.WeightedSpeedup(alone)
}

// RunRequest resolves one request of any kind, with cancellation at
// simulation granularity: a done ctx prevents the lookup from starting
// (the error is ctx.Err(), and nothing is memoised for it), while an
// in-flight run completes and is published normally. This is the
// experiment server's per-HTTP-request entry point. A profile's answer
// is in the Results' Profile field.
func (r *Runner) RunRequest(ctx context.Context, req Request) (*sim.Results, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	return r.lookup(req)
}

// AloneRequest is RunRequest for a solo run.
func (r *Runner) AloneRequest(ctx context.Context, benchmark string, cores int, fid sim.Fidelity) (*sim.Results, error) {
	return r.RunRequest(ctx, solo(KindAlone, benchmark, cores, fid))
}

// ProfileRequest is RunRequest for a DynCPE profile.
func (r *Runner) ProfileRequest(ctx context.Context, benchmark string, cores int, fid sim.Fidelity) (partition.CoreProfile, error) {
	res, err := r.RunRequest(ctx, solo(KindProfile, benchmark, cores, fid))
	if err != nil {
		return partition.CoreProfile{}, err
	}
	return res.Profile, nil
}

// RunAll resolves every request across the runner's worker pool,
// blocking until all finish, and returns the results in request order.
// The Dynamic CPE profiles of DynCPE group runs join the same fan-out,
// and with speedup so does the solo run of each involved benchmark —
// Equation 1's denominators, which WeightedSpeedup would otherwise
// resolve serially afterwards. Requests already memoised cost nothing;
// duplicate requests collapse onto one execution. The first error
// encountered is returned after all workers drain.
func (r *Runner) RunAll(reqs []Request, speedup bool) ([]*sim.Results, error) {
	var deps []Request
	seen := make(map[memoKey]bool)
	need := func(req Request) {
		if k := req.memoKey(); !seen[k] {
			seen[k] = true
			deps = append(deps, req)
		}
	}
	for _, req := range reqs {
		if req.Kind != KindRun {
			continue
		}
		cores := len(req.Group.Benchmarks)
		for _, b := range req.Group.Benchmarks {
			if speedup {
				need(solo(KindAlone, b, cores, req.Fidelity))
			}
			if req.Scheme == sim.DynCPE {
				need(solo(KindProfile, b, cores, req.Fidelity))
			}
		}
	}
	tasks := make([]func() error, 0, len(deps)+len(reqs))
	for _, req := range deps {
		tasks = append(tasks, func() error {
			_, err := r.lookup(req)
			return err
		})
	}
	results := make([]*sim.Results, len(reqs))
	for i, req := range reqs {
		tasks = append(tasks, func() error {
			var err error
			results[i], err = r.lookup(req)
			return err
		})
	}
	if err := r.fanOut(tasks); err != nil {
		return nil, err
	}
	return results, nil
}

// RunCross resolves the groups x schemes cross product at the runner's
// threshold and fidelity through RunAll and returns the results by
// [group][scheme]. Figure and table generators call it (or RunAll)
// once, then index into the results.
func (r *Runner) RunCross(groups []workload.Group, schemes []sim.SchemeKind, speedup bool) ([][]*sim.Results, error) {
	reqs := make([]Request, 0, len(groups)*len(schemes))
	for _, g := range groups {
		for _, s := range schemes {
			reqs = append(reqs, Request{Group: g, Scheme: s, Threshold: r.cfg.Threshold,
				Fidelity: r.cfg.Fidelity})
		}
	}
	runs, err := r.RunAll(reqs, speedup)
	if err != nil {
		return nil, err
	}
	return slices.Collect(slices.Chunk(runs, len(schemes))), nil
}

// runPairs resolves a baseline and a comparison arm for every group:
// the two template requests are stamped with each group in turn (and
// the runner's fidelity) and fanned out together — the shape every
// two-arm ablation shares. It returns each arm's results by group.
func (r *Runner) runPairs(groups []workload.Group, speedup bool, base, alt Request) (bases, alts []*sim.Results, err error) {
	reqs := make([]Request, 0, 2*len(groups))
	base.Fidelity, alt.Fidelity = r.cfg.Fidelity, r.cfg.Fidelity
	for _, g := range groups {
		base.Group, alt.Group = g, g
		reqs = append(reqs, base, alt)
	}
	runs, err := r.RunAll(reqs, speedup)
	if err != nil {
		return nil, nil, err
	}
	for i := 0; i < len(runs); i += 2 {
		bases = append(bases, runs[i])
		alts = append(alts, runs[i+1])
	}
	return bases, alts, nil
}

// fanOut runs tasks on the runner's bounded worker pool and returns the
// first error. Tasks execute nested dependencies (profiles, solo runs)
// inline through the singleflight memo, so a worker never submits work
// back to the pool and the pool cannot deadlock.
func (r *Runner) fanOut(tasks []func() error) error {
	var (
		wg       sync.WaitGroup
		mu       sync.Mutex
		firstErr error
	)
	work := make(chan func() error)
	for range min(r.workers, len(tasks)) {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for task := range work {
				if err := task(); err != nil {
					mu.Lock()
					if firstErr == nil {
						firstErr = err
					}
					mu.Unlock()
				}
			}
		}()
	}
	for _, task := range tasks {
		work <- task
	}
	close(work)
	wg.Wait()
	return firstErr
}

// groupsFor returns the group list for a core count: the paper's
// Table 4 lists for 2 and 4 cores, the scaling-sweep lists beyond.
func groupsFor(cores int) ([]workload.Group, error) {
	switch cores {
	case 2:
		return workload.Groups2, nil
	case 4:
		return workload.Groups4, nil
	case 8:
		return workload.Groups8, nil
	case 16:
		return workload.Groups16, nil
	default:
		return nil, fmt.Errorf("experiments: no groups for %d cores", cores)
	}
}
