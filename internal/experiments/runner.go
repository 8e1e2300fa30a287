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
	// Workers bounds the number of simulations Prefetch/RunAll execute
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

	runs     flight[runKey, *sim.Results]
	alone    flight[aloneKey, *sim.Results]
	profiles flight[aloneKey, partition.CoreProfile]
}

type runKey struct {
	group     string
	scheme    sim.SchemeKind
	threshold float64
	variant   Variant
	fidelity  sim.Fidelity
}

type aloneKey struct {
	benchmark string
	cores     int
	fidelity  sim.Fidelity
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

// Store key rendering: the canonical strings the persistent cache is
// addressed by. Seed and the full scale fingerprint are explicit —
// the in-memory memo is scoped to one runner (one scale, one seed),
// the disk store is shared by every process pointed at the directory.
// Threshold uses the shortest exact float form, so the explicit-zero
// sentinel and the default threshold stay distinct (DESIGN.md §3).
func (r *Runner) storeRunKey(k runKey) string {
	return fmt.Sprintf("run|scale=%s|seed=%d|group=%s|scheme=%s|threshold=%s|variant=%s|fidelity=%s",
		r.scaleFP, r.cfg.Seed, k.group, k.scheme,
		strconv.FormatFloat(k.threshold, 'g', -1, 64), k.variant, k.fidelity)
}

func (r *Runner) storeAloneKey(kind string, k aloneKey) string {
	return fmt.Sprintf("%s|scale=%s|seed=%d|benchmark=%s|cores=%d|fidelity=%s",
		kind, r.scaleFP, r.cfg.Seed, k.benchmark, k.cores, k.fidelity)
}

// RunKey renders the canonical store identity of a fully keyed group
// run. The service protocol sends it with every request and the server
// recomputes and verifies it, so client and server can never silently
// disagree about what a result is for.
func (r *Runner) RunKey(g workload.Group, scheme sim.SchemeKind, threshold float64, v Variant, fid sim.Fidelity) string {
	return r.storeRunKey(runKey{g.Name, scheme, threshold, v, fid})
}

// AloneKey renders the canonical store identity of a solo run.
func (r *Runner) AloneKey(benchmark string, cores int, fid sim.Fidelity) string {
	return r.storeAloneKey("alone", aloneKey{benchmark, cores, fid})
}

// ProfileKey renders the canonical store identity of a DynCPE profile.
func (r *Runner) ProfileKey(benchmark string, cores int, fid sim.Fidelity) string {
	return r.storeAloneKey("profile", aloneKey{benchmark, cores, fid})
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

// AloneResults returns (memoised) the solo run of a benchmark on the
// LLC geometry used by groups of the given core count, at the runner's
// fidelity.
func (r *Runner) AloneResults(benchmark string, cores int) (*sim.Results, error) {
	return r.aloneResults(benchmark, cores, r.cfg.Fidelity)
}

// aloneResults is the fully keyed solo run: fidelity is part of the
// memo key so the two tiers' solo IPCs never alias.
func (r *Runner) aloneResults(benchmark string, cores int, fid sim.Fidelity) (*sim.Results, error) {
	key := aloneKey{benchmark, cores, fid}
	return r.alone.Do(key, func() (*sim.Results, error) {
		skey := r.storeAloneKey("alone", key)
		if st := r.cfg.Store; st != nil {
			var cached sim.Results
			if st.Get(skey, &cached) {
				return &cached, nil
			}
		}
		if rem := r.cfg.Remote; rem != nil {
			if res, ok := rem.RemoteAlone(skey, r.cfg.Scale, r.cfg.Seed, benchmark, cores, fid); ok {
				if r.cfg.Store != nil {
					r.cfg.Store.Put(skey, res)
				}
				return res, nil
			}
		}
		cfg, err := sim.AloneConfig(benchmark, r.scaleFor(fid), cores, r.cfg.Seed, fid)
		if err != nil {
			return nil, err
		}
		r.sims.Add(1)
		res, err := r.cfg.Checkpoints.Run(cfg)
		if err == nil && r.cfg.Store != nil {
			r.cfg.Store.Put(skey, res)
		}
		return res, err
	})
}

// AloneIPC returns a benchmark's alone IPC for Equation 1 at the
// runner's fidelity.
func (r *Runner) AloneIPC(benchmark string, cores int) (float64, error) {
	return r.aloneIPC(benchmark, cores, r.cfg.Fidelity)
}

func (r *Runner) aloneIPC(benchmark string, cores int, fid sim.Fidelity) (float64, error) {
	res, err := r.aloneResults(benchmark, cores, fid)
	if err != nil {
		return 0, err
	}
	return res.IPC[0], nil
}

// Profile returns (memoised) the per-phase utility profile of a
// benchmark for Dynamic CPE, at the runner's fidelity.
func (r *Runner) Profile(benchmark string, cores int) (partition.CoreProfile, error) {
	return r.profile(benchmark, cores, r.cfg.Fidelity)
}

func (r *Runner) profile(benchmark string, cores int, fid sim.Fidelity) (partition.CoreProfile, error) {
	key := aloneKey{benchmark, cores, fid}
	return r.profiles.Do(key, func() (partition.CoreProfile, error) {
		skey := r.storeAloneKey("profile", key)
		if st := r.cfg.Store; st != nil {
			var cached partition.CoreProfile
			if st.Get(skey, &cached) {
				return cached, nil
			}
		}
		if rem := r.cfg.Remote; rem != nil {
			if p, ok := rem.RemoteProfile(skey, r.cfg.Scale, r.cfg.Seed, benchmark, cores, fid); ok {
				if r.cfg.Store != nil {
					r.cfg.Store.Put(skey, p)
				}
				return p, nil
			}
		}
		cfg, err := sim.ProfileConfig(benchmark, r.scaleFor(fid), cores, r.cfg.Seed, fid)
		if err != nil {
			return partition.CoreProfile{}, err
		}
		r.sims.Add(1)
		res, err := r.cfg.Checkpoints.Run(cfg)
		if err != nil {
			return partition.CoreProfile{}, err
		}
		if r.cfg.Store != nil {
			r.cfg.Store.Put(skey, res.Profile)
		}
		return res.Profile, nil
	})
}

// RunGroup executes (memoised) one group under one scheme at the
// runner's threshold.
func (r *Runner) RunGroup(g workload.Group, scheme sim.SchemeKind) (*sim.Results, error) {
	return r.RunGroupVariant(g, scheme, r.cfg.Threshold, VariantNone)
}

// RunGroupThreshold is RunGroup with an explicit CoopPart threshold
// (Figures 11-13 sweep it). A threshold of 0 means exactly zero — it is
// memoised distinctly from DefaultThreshold and encoded for the
// simulator by sim.EncodeThreshold.
func (r *Runner) RunGroupThreshold(g workload.Group, scheme sim.SchemeKind, threshold float64) (*sim.Results, error) {
	return r.RunGroupVariant(g, scheme, threshold, VariantNone)
}

// RunGroupVariant is RunGroupFidelity at the runner's fidelity.
func (r *Runner) RunGroupVariant(g workload.Group, scheme sim.SchemeKind, threshold float64, v Variant) (*sim.Results, error) {
	return r.RunGroupFidelity(g, scheme, threshold, v, r.cfg.Fidelity)
}

// RunGroupFidelity is the fully keyed run: group x scheme x threshold
// x ablation variant x RNG-walk tier. Fidelity is part of the memo key
// (like the threshold sentinel, regression-pinned by
// TestFidelityMemoisedDistinctly), and a DynCPE run gathers its
// profiles at its own tier.
func (r *Runner) RunGroupFidelity(g workload.Group, scheme sim.SchemeKind, threshold float64, v Variant, fid sim.Fidelity) (*sim.Results, error) {
	key := runKey{g.Name, scheme, threshold, v, fid}
	return r.runs.Do(key, func() (*sim.Results, error) {
		skey := r.storeRunKey(key)
		if st := r.cfg.Store; st != nil {
			var cached sim.Results
			if st.Get(skey, &cached) {
				// A disk hit also skips the DynCPE profile runs the
				// simulation would have needed.
				return &cached, nil
			}
		}
		if rem := r.cfg.Remote; rem != nil {
			// A remote hit likewise skips the DynCPE profiles: the
			// server gathers its own.
			if res, ok := rem.RemoteRun(skey, r.cfg.Scale, r.cfg.Seed, g, scheme, threshold, v, fid); ok {
				if r.cfg.Store != nil {
					r.cfg.Store.Put(skey, res)
				}
				return res, nil
			}
		}
		cfg := sim.RunConfig{
			Scale:     r.scaleFor(fid),
			Scheme:    scheme,
			Group:     g,
			Threshold: sim.EncodeThreshold(threshold),
			Seed:      r.cfg.Seed,
			Fidelity:  fid,
		}
		if err := applyVariant(&cfg, v); err != nil {
			return nil, err
		}
		if scheme == sim.DynCPE {
			for _, b := range g.Benchmarks {
				p, err := r.profile(b, len(g.Benchmarks), fid)
				if err != nil {
					return nil, err
				}
				cfg.Profiles = append(cfg.Profiles, p)
			}
		}
		r.sims.Add(1)
		res, err := r.cfg.Checkpoints.Run(cfg)
		if err == nil && r.cfg.Store != nil {
			r.cfg.Store.Put(skey, res)
		}
		return res, err
	})
}

// WeightedSpeedup computes Equation 1 for one run. The solo
// denominators come from the run's own RNG-walk tier (res.Fidelity):
// a fast-forward numerator over an exact denominator would fold the
// tier delta into every speedup.
func (r *Runner) WeightedSpeedup(res *sim.Results) (float64, error) {
	alone := make(map[string]float64, len(res.Benchmarks))
	for _, b := range res.Benchmarks {
		ipc, err := r.aloneIPC(b, len(res.Benchmarks), res.Fidelity)
		if err != nil {
			return 0, err
		}
		alone[b] = ipc
	}
	return res.WeightedSpeedup(alone)
}

// Request names one memoisable run for RunAll. Threshold follows
// RunGroupThreshold semantics: 0 is an explicit zero threshold, not the
// runner's default. Fidelity is explicit — the zero value is
// sim.FidelityExact, never the runner's default — so hand-built
// requests stay on the bit-identical tier unless they opt out; the
// runner's own request builders stamp its configured fidelity.
type Request struct {
	Group     workload.Group
	Scheme    sim.SchemeKind
	Threshold float64
	Variant   Variant
	Fidelity  sim.Fidelity
}

// RunAll executes every request — plus the Dynamic CPE profiles any
// DynCPE request needs — across the runner's worker pool, blocking
// until all finish. Requests already memoised cost nothing; duplicate
// requests collapse onto one execution. The first error encountered is
// returned after all workers drain. Callers that will compute weighted
// speedups from the results should use RunAllSpeedup so Equation 1's
// solo runs join the same fan-out.
func (r *Runner) RunAll(reqs []Request) error { return r.runAll(context.Background(), reqs, false) }

// RunAllSpeedup is RunAll plus the solo run of each involved benchmark
// — Equation 1's denominators, which WeightedSpeedup would otherwise
// execute serially afterwards.
func (r *Runner) RunAllSpeedup(reqs []Request) error {
	return r.runAll(context.Background(), reqs, true)
}

// RunAllContext is RunAll with cancellation: once ctx is done, no new
// simulation starts, but simulations already in flight run to
// completion (drain semantics — a cancelled sweep never leaves the
// memo or the store with a half-published run). Returns ctx.Err() if
// the fan-out was cut short.
func (r *Runner) RunAllContext(ctx context.Context, reqs []Request) error {
	return r.runAll(ctx, reqs, false)
}

// RunRequest executes one fully keyed request with cancellation at
// simulation granularity: a done ctx prevents the run from starting
// (the error is ctx.Err(), and nothing is memoised for the key), while
// an in-flight run completes and is published normally. This is the
// experiment server's per-HTTP-request entry point.
func (r *Runner) RunRequest(ctx context.Context, req Request) (*sim.Results, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	return r.RunGroupFidelity(req.Group, req.Scheme, req.Threshold, req.Variant, req.Fidelity)
}

// AloneRequest is the cancellable fully keyed solo run.
func (r *Runner) AloneRequest(ctx context.Context, benchmark string, cores int, fid sim.Fidelity) (*sim.Results, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	return r.aloneResults(benchmark, cores, fid)
}

// ProfileRequest is the cancellable fully keyed DynCPE profile run.
func (r *Runner) ProfileRequest(ctx context.Context, benchmark string, cores int, fid sim.Fidelity) (partition.CoreProfile, error) {
	if err := ctx.Err(); err != nil {
		return partition.CoreProfile{}, err
	}
	return r.profile(benchmark, cores, fid)
}

func (r *Runner) runAll(ctx context.Context, reqs []Request, speedup bool) error {
	var tasks []func() error
	seenAlone := make(map[aloneKey]bool)
	seenProfile := make(map[aloneKey]bool)
	for _, req := range reqs {
		cores := len(req.Group.Benchmarks)
		for _, b := range req.Group.Benchmarks {
			k := aloneKey{b, cores, req.Fidelity}
			if speedup && !seenAlone[k] {
				seenAlone[k] = true
				tasks = append(tasks, func() error {
					_, err := r.aloneResults(k.benchmark, k.cores, k.fidelity)
					return err
				})
			}
			if req.Scheme == sim.DynCPE && !seenProfile[k] {
				seenProfile[k] = true
				tasks = append(tasks, func() error {
					_, err := r.profile(k.benchmark, k.cores, k.fidelity)
					return err
				})
			}
		}
	}
	for _, req := range reqs {
		tasks = append(tasks, func() error {
			_, err := r.RunGroupFidelity(req.Group, req.Scheme, req.Threshold, req.Variant, req.Fidelity)
			return err
		})
	}
	return r.fanOut(ctx, tasks)
}

// Prefetch warms the memo for the cross product of groups and schemes
// at the runner's threshold, fanning the runs out over the worker pool.
// Figure and table generators call it (or PrefetchSpeedup, when they
// also need Equation 1's solo runs) first, then collect results from
// the warm cache serially.
func (r *Runner) Prefetch(groups []workload.Group, schemes []sim.SchemeKind) error {
	return r.RunAll(r.crossRequests(groups, schemes))
}

// PrefetchSpeedup is Prefetch plus the solo runs of every involved
// benchmark.
func (r *Runner) PrefetchSpeedup(groups []workload.Group, schemes []sim.SchemeKind) error {
	return r.RunAllSpeedup(r.crossRequests(groups, schemes))
}

// crossRequests builds the groups x schemes request list at the
// runner's threshold and fidelity.
func (r *Runner) crossRequests(groups []workload.Group, schemes []sim.SchemeKind) []Request {
	reqs := make([]Request, 0, len(groups)*len(schemes))
	for _, g := range groups {
		for _, s := range schemes {
			reqs = append(reqs, Request{Group: g, Scheme: s, Threshold: r.cfg.Threshold,
				Fidelity: r.cfg.Fidelity})
		}
	}
	return reqs
}

// runPairs warms a baseline and a comparison arm for every group: the
// two template requests are stamped with each group in turn (and the
// runner's fidelity) and fanned out together — the shape every two-arm
// ablation shares.
func (r *Runner) runPairs(groups []workload.Group, speedup bool, base, alt Request) error {
	reqs := make([]Request, 0, 2*len(groups))
	base.Fidelity, alt.Fidelity = r.cfg.Fidelity, r.cfg.Fidelity
	for _, g := range groups {
		base.Group, alt.Group = g, g
		reqs = append(reqs, base, alt)
	}
	return r.runAll(context.Background(), reqs, speedup)
}

// PrefetchAlone warms the solo runs of the given benchmarks on the
// LLC geometry of cores-sized groups (Table 3 measures all of them).
func (r *Runner) PrefetchAlone(benchmarks []string, cores int) error {
	tasks := make([]func() error, 0, len(benchmarks))
	for _, b := range benchmarks {
		tasks = append(tasks, func() error {
			_, err := r.AloneResults(b, cores)
			return err
		})
	}
	return r.fanOut(context.Background(), tasks)
}

// fanOut runs tasks on the runner's bounded worker pool and returns the
// first error. Tasks execute nested dependencies (profiles, solo runs)
// inline through the singleflight memo, so a worker never submits work
// back to the pool and the pool cannot deadlock. A done ctx stops the
// submission loop — tasks not yet handed to a worker never run, tasks
// in flight complete — and surfaces as ctx.Err() when no task failed
// first.
func (r *Runner) fanOut(ctx context.Context, tasks []func() error) error {
	if len(tasks) == 0 {
		return nil
	}
	workers := r.workers
	if workers > len(tasks) {
		workers = len(tasks)
	}
	var (
		wg       sync.WaitGroup
		mu       sync.Mutex
		firstErr error
	)
	work := make(chan func() error)
	wg.Add(workers)
	for i := 0; i < workers; i++ {
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
	cancelled := false
	for _, task := range tasks {
		if ctx.Err() != nil {
			cancelled = true
			break
		}
		select {
		case work <- task:
		case <-ctx.Done():
			cancelled = true
		}
		if cancelled {
			break
		}
	}
	close(work)
	wg.Wait()
	if firstErr != nil {
		return firstErr
	}
	if cancelled {
		return ctx.Err()
	}
	return nil
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
