package main

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/ckpt"
	"repro/internal/experiments"
	"repro/internal/metrics"
	"repro/internal/partition"
	"repro/internal/service"
	"repro/internal/sim"
	"repro/internal/store"
	"repro/internal/workload"
)

// sizes fixes how much work each workload does. production is what the
// benchmark measures; the self-test runs toy sizes through the same code.
type sizes struct {
	fig5Scale  sim.Scale
	fig5Groups []string // the Fig 5 subset: one iteration must fit a run several times

	manyScale sim.Scale // set-sampled, K = manyScale.SampleStride
	manyCores int

	lookupScale   sim.Scale
	lookupFigures []int
	lookupSetups  int // set-up repetitions; each one simulates the whole fill
}

func production() sizes {
	// UnitScale keeps the 16-core TestScale hierarchy and phase
	// structure with a tenth of the instruction budget: a TestScale pass
	// takes about 38 s on a 2-vCPU host, so a run would hold one pass and
	// no median.
	many := sim.UnitScale()
	many.SampleStride = 8
	return sizes{
		fig5Scale: sim.TestScale(),
		// Three groups with distinct sharing behaviour: two streaming
		// programs contending (G2-8), a streaming and a cache-friendly
		// program (G2-1), and two mid-intensity programs (G2-14).
		fig5Groups:    []string{"G2-1", "G2-8", "G2-14"},
		manyScale:     many,
		manyCores:     16,
		lookupScale:   sim.UnitScale(),
		lookupFigures: []int{5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15, 16},
		lookupSetups:  3,
	}
}

// simSetups is how many times a simulator workload builds its runner
// during set-up. One build takes about 10 us, and the first
// milliseconds of a process run up to twice as slow, so the median
// needs enough builds to span well past them.
const simSetups = 1001

// Lookup kinds: the runner's three memo spaces.
const (
	kindRun     = "run"
	kindAlone   = "alone"
	kindProfile = "profile"
)

// lookup is one public runner call the benchmark makes and times.
type lookup struct {
	kind  string
	req   experiments.Request // kindRun
	bench string              // kindAlone, kindProfile
	cores int
	fid   sim.Fidelity
}

func (l lookup) call(ctx context.Context, r *experiments.Runner) (*sim.Results, error) {
	switch l.kind {
	case kindRun:
		return r.RunRequest(ctx, l.req)
	case kindAlone:
		return r.AloneRequest(ctx, l.bench, l.cores, l.fid)
	default:
		_, err := r.ProfileRequest(ctx, l.bench, l.cores, l.fid)
		return nil, err
	}
}

func (l lookup) String() string {
	if l.kind == kindRun {
		return fmt.Sprintf("%s %s/%s/T=%g/%s", l.kind, l.req.Group.Name, l.req.Scheme, l.req.Threshold, l.req.Variant)
	}
	return fmt.Sprintf("%s %s/%d-core", l.kind, l.bench, l.cores)
}

// instructions is the simulated work behind the lookup's answer: the
// warm-up plus measured budget over all cores of the run.
func (l lookup) instructions(sc sim.Scale) uint64 {
	cores := 1
	if l.kind == kindRun {
		cores = len(l.req.Group.Benchmarks)
	}
	return uint64(cores) * (sc.WarmupInstr + sc.InstrPerApp)
}

// sweepLookups lists, in the order the runner's own fan-out uses, every
// call a groups x all-schemes sweep needs: Equation 1's solo runs, the
// DynCPE profiles, then the group runs.
func sweepLookups(groups []workload.Group, fid sim.Fidelity) []lookup {
	var out []lookup
	seen := map[string]bool{}
	for _, g := range groups {
		for _, b := range g.Benchmarks {
			if !seen[b] {
				seen[b] = true
				out = append(out,
					lookup{kind: kindAlone, bench: b, cores: len(g.Benchmarks), fid: fid},
					lookup{kind: kindProfile, bench: b, cores: len(g.Benchmarks), fid: fid})
			}
		}
	}
	for _, g := range groups {
		for _, s := range sim.AllSchemes {
			out = append(out, lookup{kind: kindRun, fid: fid, req: experiments.Request{
				Group: g, Scheme: s, Threshold: experiments.DefaultThreshold, Fidelity: fid}})
		}
	}
	return out
}

// modelCounts are simulated statistics summed over every result a run's
// lookups return. They are deterministic at one seed: a change meant
// only to speed the simulator up must leave them identical.
type modelCounts struct {
	LLCAccesses      uint64 `json:"llc.accesses"`
	LLCMisses        uint64 `json:"llc.misses"`
	LLCWaysConsulted uint64 `json:"llc.ways_consulted"`
	Decisions        uint64 `json:"partition.decisions"`
	Repartitions     uint64 `json:"partition.repartitions"`
	WaysMoved        uint64 `json:"core.ways_moved"`
	MemReads         uint64 `json:"mem.reads"`
	MemWrites        uint64 `json:"mem.writes"`
	MemQueueStalls   uint64 `json:"mem.queue_stalls"`
}

func (c *modelCounts) add(res *sim.Results) {
	if res == nil {
		return
	}
	for _, pc := range res.SchemeStats.PerCore {
		c.LLCAccesses += pc.Accesses
		c.LLCMisses += pc.Misses
		c.LLCWaysConsulted += pc.TagsConsulted
	}
	c.Decisions += res.SchemeStats.Decisions
	c.Repartitions += res.SchemeStats.Repartitions
	c.WaysMoved += res.Transition.WaysMoved
	c.MemReads += res.DRAM.Reads
	c.MemWrites += res.DRAM.Writes
	c.MemQueueStalls += res.DRAM.QueueStalls
}

// reference is the expected output of a simulator workload at one seed.
type reference struct {
	Digest string      `json:"digest"`
	Counts modelCounts `json:"counts"`
}

// iteration is everything one measured pass of a workload records.
type iteration struct {
	wallS     float64
	rssMB     float64
	allocMB   float64
	attempted int
	failed    int

	lookupUS []float64
	answered map[string]int // memo, disk, remote, simulate
	instr    uint64
	counts   modelCounts
	renderS  float64
	digest   string

	simulations  uint64
	warmComputed uint64
	warmResumed  uint64

	storeGetUS     []float64
	storePublishUS []float64
	clientUS       []float64
	serverUS       []float64
	storeHits      uint64
	storeWrites    uint64
	storeFaults    uint64
	retries        uint64
	fallbacks      uint64

	layers layerTimes // traced iterations only
}

func newIteration() *iteration { return &iteration{answered: map[string]int{}} }

// fail counts one failed operation and says why on stderr.
func (it *iteration) fail(format string, args ...any) {
	it.failed++
	fmt.Fprintf(os.Stderr, "perfbench: FAIL: "+format+"\n", args...)
}

// env is a workload after set-up.
type env interface {
	// iterate makes one measured pass; traced switches on the timing
	// wrappers the benchmark owns (the CPU profile is the caller's).
	iterate(it *iteration, traced bool) error
}

// spec is a workload definition.
type spec struct {
	name   string
	setups int
	setup  func(seed uint64) (env, error)
}

// workloads returns the benchmark's workloads at the given sizes, with
// refs the expected outputs of the simulator workloads per seed.
func workloads(sz sizes, refs map[string]map[uint64]reference) map[string]spec {
	fig5 := &simSpec{
		name: "fig5-exact",
		cfg:  experiments.Config{Scale: sz.fig5Scale, Workers: 1},
		groups: func() ([]workload.Group, error) {
			return pickGroups(workload.Groups2, sz.fig5Groups)
		},
		render: renderFig5,
	}
	many := &simSpec{
		name: "manycore16-sampled",
		cfg:  experiments.Config{Scale: sz.manyScale, Workers: 1, Fidelity: sim.FidelitySetSampled},
		groups: func() ([]workload.Group, error) {
			gs, ok := coreGroups[sz.manyCores]
			if !ok {
				return nil, fmt.Errorf("no %d-core groups", sz.manyCores)
			}
			return gs[:1], nil
		},
		render: func(r *experiments.Runner, _ []workload.Group, w io.Writer) error {
			figs, err := r.ScalingSweep([]int{sz.manyCores}, 1)
			if err != nil {
				return err
			}
			for _, f := range figs {
				if err := f.WriteTable(w); err != nil {
					return err
				}
			}
			return nil
		},
	}
	lw := &lookupSpec{scale: sz.lookupScale, figures: sz.lookupFigures}
	out := map[string]spec{}
	for _, s := range []*simSpec{fig5, many} {
		s.refs = refs[s.name]
		out[s.name] = spec{name: s.name, setups: simSetups, setup: s.setup}
	}
	out["lookup-warm"] = spec{name: "lookup-warm", setups: sz.lookupSetups, setup: lw.setup}
	return out
}

// coreGroups mirrors the runner's group lists per core count: the
// scaling sweep's first group at 16 cores is Groups16[0].
var coreGroups = map[int][]workload.Group{
	2: workload.Groups2, 4: workload.Groups4, 8: workload.Groups8, 16: workload.Groups16,
}

func pickGroups(all []workload.Group, names []string) ([]workload.Group, error) {
	var out []workload.Group
	for _, n := range names {
		found := false
		for _, g := range all {
			if g.Name == n {
				out, found = append(out, g), true
			}
		}
		if !found {
			return nil, fmt.Errorf("unknown group %q", n)
		}
	}
	return out, nil
}

// ---------------------------------------------------------------------
// Simulator workloads: a fresh storeless runner per pass, every lookup
// answered by simulation, then the figures rendered from the warm memo.

type simSpec struct {
	name   string
	cfg    experiments.Config
	groups func() ([]workload.Group, error)
	render func(r *experiments.Runner, groups []workload.Group, w io.Writer) error
	refs   map[uint64]reference
}

type simEnv struct {
	spec    *simSpec
	cfg     experiments.Config
	groups  []workload.Group
	lookups []lookup
	ref     *reference
}

func (s *simSpec) setup(seed uint64) (env, error) {
	groups, err := s.groups()
	if err != nil {
		return nil, err
	}
	cfg := s.cfg
	cfg.Seed = seed
	e := &simEnv{spec: s, cfg: cfg, groups: groups, lookups: sweepLookups(groups, cfg.Fidelity)}
	if ref, ok := s.refs[seed]; ok {
		e.ref = &ref
	}
	// Set-up time covers building a runner; every pass builds its own
	// fresh one, so this one is not kept.
	e.newRunner()
	return e, nil
}

func (e *simEnv) newRunner() *experiments.Runner {
	cfg := e.cfg
	cfg.Checkpoints = ckpt.New(ckpt.Options{})
	return experiments.NewRunner(cfg)
}

func (e *simEnv) iterate(it *iteration, _ bool) error {
	ctx := context.Background()
	start := time.Now()
	r := e.newRunner()
	sc := r.Scale()
	for _, l := range e.lookups {
		before := r.Simulations()
		t0 := time.Now()
		res, err := l.call(ctx, r)
		d := time.Since(t0)
		it.attempted++
		if err != nil {
			it.fail("%s: %v", l, err)
			continue
		}
		it.lookupUS = append(it.lookupUS, float64(d.Nanoseconds())/1e3)
		if r.Simulations() > before {
			it.answered["simulate"]++
		} else {
			it.answered["memo"]++
		}
		it.instr += l.instructions(sc)
		it.counts.add(res)
	}
	var out bytes.Buffer
	before := r.Simulations()
	t0 := time.Now()
	err := e.spec.render(r, e.groups, &out)
	it.renderS = time.Since(t0).Seconds()
	it.wallS = time.Since(start).Seconds()
	it.simulations = r.Simulations()
	ck := r.Checkpoints().Stats()
	it.warmComputed, it.warmResumed = ck.WarmupsComputed, ck.WarmupsResumed

	it.attempted++
	sum := sha256.Sum256(out.Bytes())
	it.digest = hex.EncodeToString(sum[:])
	switch {
	case err != nil:
		it.fail("rendering: %v", err)
	case r.Simulations() != before:
		it.fail("rendering simulated %d runs the lookups did not cover", r.Simulations()-before)
	case e.ref == nil:
		it.fail("no reference output for seed %d", e.cfg.Seed)
	case it.digest != e.ref.Digest:
		it.fail("output digest %s, reference %s", it.digest, e.ref.Digest)
	case it.counts != e.ref.Counts:
		it.fail("model counts %+v, reference %+v", it.counts, e.ref.Counts)
	}
	return nil
}

// renderFig5 draws Figures 5-7 over the workload's group subset the way
// the runner draws them over all fourteen groups: weighted speedup,
// dynamic energy and static power, each normalised to Fair Share.
func renderFig5(r *experiments.Runner, groups []workload.Group, w io.Writer) error {
	values := []struct {
		id    string
		value func(*sim.Results) (float64, error)
	}{
		{"Fig5", r.WeightedSpeedup},
		{"Fig6", func(res *sim.Results) (float64, error) { return res.Dynamic, nil }},
		{"Fig7", func(res *sim.Results) (float64, error) { return res.StaticPower, nil }},
	}
	for _, v := range values {
		fig := metrics.Figure{ID: v.id, Title: v.id + " over the benchmark's group subset",
			XLabel: "group", YLabel: "normalised to Fair Share"}
		base := make([]float64, len(groups))
		for i, g := range groups {
			fig.X = append(fig.X, g.Name)
			res, err := r.RunGroup(g, sim.FairShare)
			if err != nil {
				return err
			}
			if base[i], err = v.value(res); err != nil {
				return err
			}
			if base[i] == 0 {
				return fmt.Errorf("%s: zero Fair Share baseline for %s", v.id, g.Name)
			}
		}
		for _, scheme := range sim.AllSchemes {
			vals := make([]float64, len(groups))
			for i, g := range groups {
				res, err := r.RunGroup(g, scheme)
				if err != nil {
					return err
				}
				x, err := v.value(res)
				if err != nil {
					return err
				}
				vals[i] = x / base[i]
			}
			fig.Series = append(fig.Series, metrics.NamedSeries{Name: string(scheme), Values: vals})
		}
		fig.AppendGeoMeanColumn("AVG")
		if err := fig.WriteTable(w); err != nil {
			return err
		}
	}
	return nil
}

// ---------------------------------------------------------------------
// lookup-warm: an in-process expd filled during set-up; each pass asks
// a fresh runner with an empty store and the expd client for every
// result (remote hit, local publish), then, twice, a fresh runner on that
// store with no remote for every result again (disk hit).

type lookupSpec struct {
	scale   sim.Scale
	figures []int
}

type lookupEnv struct {
	spec      *lookupSpec
	seed      uint64
	handler   *timingHandler
	client    *service.Client
	lookups   []lookup
	want      []byte // local-simulation output, the reference
	setupFail []string
}

// renderAll writes the workload's figures and Tables 1-4.
func (s *lookupSpec) renderAll(r *experiments.Runner, w io.Writer) error {
	for _, n := range s.figures {
		f, err := r.Figure(n)
		if err != nil {
			return err
		}
		if err := f.WriteTable(w); err != nil {
			return err
		}
	}
	if err := r.Table1(w); err != nil {
		return err
	}
	if err := r.Table2(w); err != nil {
		return err
	}
	rows, err := r.Table3()
	if err != nil {
		return err
	}
	experiments.WriteTable3(w, rows)
	return r.Table4(w)
}

func logf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "perfbench: "+format+"\n", args...)
}

func (e *lookupEnv) runnerConfig() experiments.Config {
	return experiments.Config{Scale: e.spec.scale, Seed: e.seed, Workers: 1,
		Checkpoints: ckpt.New(ckpt.Options{})}
}

func (s *lookupSpec) setup(seed uint64) (env, error) {
	e := &lookupEnv{spec: s, seed: seed}
	srvStore, err := openStore(newMemFS(), "server")
	if err != nil {
		return nil, err
	}
	ck := ckpt.New(ckpt.Options{})

	// Fill: simulate every result locally into the server's store; the
	// rendered output is the reference every pass must reproduce.
	fillCfg := e.runnerConfig()
	fillCfg.Workers = runtime.GOMAXPROCS(0)
	fillCfg.Store, fillCfg.Checkpoints = srvStore, ck
	var want bytes.Buffer
	if err := e.spec.renderAll(experiments.NewRunner(fillCfg), &want); err != nil {
		return nil, fmt.Errorf("filling the server store: %w", err)
	}
	e.want = want.Bytes()

	srv := service.NewServer(service.ServerOptions{Workers: 1, MaxConcurrent: 1,
		Store: srvStore, Checkpoints: ck, Logf: logf})
	e.handler = &timingHandler{inner: srv.Handler()}
	e.client, err = service.NewClient("http://expd",
		service.ClientOptions{Transport: handlerTransport{e.handler}, Logf: logf})
	if err != nil {
		return nil, err
	}

	// Record the lookups the figures make by rendering them once through
	// the client; the server answers each from its store.
	rec := &recorder{inner: e.client}
	cfg := e.runnerConfig()
	cfg.Remote = rec
	r := experiments.NewRunner(cfg)
	var got bytes.Buffer
	if err := e.spec.renderAll(r, &got); err != nil {
		e.setupFail = append(e.setupFail, fmt.Sprintf("recording pass: %v", err))
	} else if !bytes.Equal(got.Bytes(), e.want) {
		e.setupFail = append(e.setupFail, "recording pass output differs from local simulation")
	}
	if n := r.Simulations(); n != 0 {
		e.setupFail = append(e.setupFail, fmt.Sprintf("recording pass simulated %d runs locally", n))
	}
	e.lookups = rec.lookups
	return e, nil
}

func (e *lookupEnv) iterate(it *iteration, traced bool) error {
	for _, msg := range e.setupFail {
		it.attempted++
		it.fail("%s", msg)
	}
	fsys := newMemFS()
	e.handler.on.Store(traced)
	defer e.handler.on.Store(false)

	start := time.Now()
	var remote experiments.Remote = e.client
	var timed *timingRemote
	if traced {
		timed = &timingRemote{inner: e.client}
		remote = timed
	}
	// The read half runs twice, so reads are two thirds of the lookups:
	// lookup_p50_us then falls inside the reads and lookup_p99_us inside
	// the writes, instead of on the boundary between the two.
	for _, withRemote := range []bool{true, false, false} {
		st, err := openStore(fsys, "local")
		if err != nil {
			return err
		}
		cfg := e.runnerConfig()
		cfg.Store = st
		if withRemote {
			cfg.Remote = remote
		}
		e.lookupAll(it, experiments.NewRunner(cfg), st, timed)
	}
	it.wallS = time.Since(start).Seconds()
	it.serverUS = e.handler.take()
	return nil
}

// lookupAll asks runner r for every recorded lookup, attributing each to the
// layer that answered it, then renders and checks the output.
func (e *lookupEnv) lookupAll(it *iteration, r *experiments.Runner, st *store.Store, timed *timingRemote) {
	ctx := context.Background()
	st0, cl0 := st.Stats(), e.client.Stats()
	sc := r.Scale()
	for _, l := range e.lookups {
		sims, ss, cs := r.Simulations(), st.Stats(), e.client.Stats()
		if timed != nil {
			timed.spent = 0
		}
		t0 := time.Now()
		res, err := l.call(ctx, r)
		d := time.Since(t0)
		it.attempted++
		if err != nil {
			it.fail("%s: %v", l, err)
			continue
		}
		us := float64(d.Nanoseconds()) / 1e3
		it.lookupUS = append(it.lookupUS, us)
		it.instr += l.instructions(sc)
		it.counts.add(res)
		cs1 := e.client.Stats()
		switch {
		case r.Simulations() > sims:
			it.answered["simulate"]++
			it.fail("%s answered by local simulation", l)
		case cs1.RemoteHits > cs.RemoteHits:
			it.answered["remote"]++
			if timed != nil {
				it.clientUS = append(it.clientUS, float64(timed.spent.Nanoseconds())/1e3)
				it.storePublishUS = append(it.storePublishUS, float64((d-timed.spent).Nanoseconds())/1e3)
			}
		case st.Stats().Hits > ss.Hits:
			it.answered["disk"]++
			it.storeGetUS = append(it.storeGetUS, us)
		default:
			it.answered["memo"]++
		}
		if cs1.LocalFallbacks > cs.LocalFallbacks {
			it.fail("%s fell back to local computation", l)
		}
	}

	var out bytes.Buffer
	sims := r.Simulations()
	t0 := time.Now()
	err := e.spec.renderAll(r, &out)
	it.renderS += time.Since(t0).Seconds()
	it.attempted++
	switch {
	case err != nil:
		it.fail("rendering: %v", err)
	case r.Simulations() != sims:
		it.fail("rendering simulated %d runs the lookups did not cover", r.Simulations()-sims)
	case !bytes.Equal(out.Bytes(), e.want):
		it.fail("output differs from the local-simulation output")
	}

	st1, cl1 := st.Stats(), e.client.Stats()
	it.storeHits += st1.Hits - st0.Hits
	it.storeWrites += st1.Writes - st0.Writes
	it.storeFaults += st1.Faults - st0.Faults
	it.retries += cl1.Retries - cl0.Retries
	it.fallbacks += cl1.LocalFallbacks - cl0.LocalFallbacks
	it.simulations += r.Simulations()
	ck := r.Checkpoints().Stats()
	it.warmComputed += ck.WarmupsComputed
	it.warmResumed += ck.WarmupsResumed
}

// recorder is an experiments.Remote that notes every lookup it forwards.
type recorder struct {
	inner   experiments.Remote
	mu      sync.Mutex
	lookups []lookup
}

func (rc *recorder) note(l lookup) {
	rc.mu.Lock()
	rc.lookups = append(rc.lookups, l)
	rc.mu.Unlock()
}

func (rc *recorder) RemoteRun(key string, sc sim.Scale, seed uint64, g workload.Group,
	scheme sim.SchemeKind, threshold float64, v experiments.Variant, fid sim.Fidelity) (*sim.Results, bool) {
	rc.note(lookup{kind: kindRun, fid: fid, req: experiments.Request{
		Group: g, Scheme: scheme, Threshold: threshold, Variant: v, Fidelity: fid}})
	return rc.inner.RemoteRun(key, sc, seed, g, scheme, threshold, v, fid)
}

func (rc *recorder) RemoteAlone(key string, sc sim.Scale, seed uint64,
	benchmark string, cores int, fid sim.Fidelity) (*sim.Results, bool) {
	rc.note(lookup{kind: kindAlone, bench: benchmark, cores: cores, fid: fid})
	return rc.inner.RemoteAlone(key, sc, seed, benchmark, cores, fid)
}

func (rc *recorder) RemoteProfile(key string, sc sim.Scale, seed uint64,
	benchmark string, cores int, fid sim.Fidelity) (partition.CoreProfile, bool) {
	rc.note(lookup{kind: kindProfile, bench: benchmark, cores: cores, fid: fid})
	return rc.inner.RemoteProfile(key, sc, seed, benchmark, cores, fid)
}

// timingRemote is the traced run's experiments.Remote: it times every
// call into the expd client. The runner calls it from the goroutine of
// the lookup, which the benchmark makes one at a time.
type timingRemote struct {
	inner experiments.Remote
	spent time.Duration
}

func (t *timingRemote) RemoteRun(key string, sc sim.Scale, seed uint64, g workload.Group,
	scheme sim.SchemeKind, threshold float64, v experiments.Variant, fid sim.Fidelity) (*sim.Results, bool) {
	defer t.time(time.Now())
	return t.inner.RemoteRun(key, sc, seed, g, scheme, threshold, v, fid)
}

func (t *timingRemote) RemoteAlone(key string, sc sim.Scale, seed uint64,
	benchmark string, cores int, fid sim.Fidelity) (*sim.Results, bool) {
	defer t.time(time.Now())
	return t.inner.RemoteAlone(key, sc, seed, benchmark, cores, fid)
}

func (t *timingRemote) RemoteProfile(key string, sc sim.Scale, seed uint64,
	benchmark string, cores int, fid sim.Fidelity) (partition.CoreProfile, bool) {
	defer t.time(time.Now())
	return t.inner.RemoteProfile(key, sc, seed, benchmark, cores, fid)
}

func (t *timingRemote) time(start time.Time) { t.spent += time.Since(start) }

// handlerTransport is the expd client's http.RoundTripper: it serves
// each request by calling the expd handler in the calling goroutine,
// with no socket in between. Over loopback TCP on the 2-vCPU host,
// lookup_p99_us followed when the kernel woke the other side and varied
// 3x between runs; the client's and server's own code runs either way.
type handlerTransport struct{ h http.Handler }

func (t handlerTransport) RoundTrip(req *http.Request) (*http.Response, error) {
	rec := httptest.NewRecorder()
	t.h.ServeHTTP(rec, req)
	resp := rec.Result()
	resp.Request = req
	return resp, nil
}

// timingHandler wraps the expd handler and, while on, records how long
// the server spends on each request.
type timingHandler struct {
	inner http.Handler
	on    atomic.Bool
	mu    sync.Mutex
	us    []float64
}

func (h *timingHandler) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	if !h.on.Load() {
		h.inner.ServeHTTP(w, r)
		return
	}
	t0 := time.Now()
	h.inner.ServeHTTP(w, r)
	d := time.Since(t0)
	h.mu.Lock()
	h.us = append(h.us, float64(d.Nanoseconds())/1e3)
	h.mu.Unlock()
}

func (h *timingHandler) take() []float64 {
	h.mu.Lock()
	defer h.mu.Unlock()
	out := h.us
	h.us = nil
	return out
}
