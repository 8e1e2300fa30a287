// Package cliutil is the command-line environment of the six repro
// binaries: coopsim, figures, tables, report, tiercheck and expd. Env
// declares the shared flags once, validates them before any side
// effect, opens the layers they name and tears everything down through
// one idempotent path, so error messages, stats lines, profiles and
// lock release are the same in every binary and on every way out —
// normal return, Fatal, a non-zero Exit or SIGINT/SIGTERM.
//
// # Shared flags
//
// Every binary built on New takes
//
//	-scale unit|test|full   simulation scale (default test)
//	-workers N              concurrent simulations (default: one per CPU)
//	-sample-sets K          LLC set-sampling ratio of the set-sampled tier
//	                        (power of two; 0 = sim.DefaultSampleStride)
//	-server URL             fetch results from an expd daemon (DESIGN.md §13);
//	                        a dead server degrades to local computation
//
// and, where the binary's Flags names them,
//
//	-seed N                                  workload seed (default 1)
//	-fidelity exact|fastforward|set-sampled  simulation tier (default exact)
//	-threshold T                             CoopPart takeover threshold in [0, 1]
//	-cpuprofile FILE, -memprofile FILE       pprof profiles of the whole run
//
// Every binary, expd included (NewPersistence), takes the persistence
// flags
//
//	-cache-dir DIR         persistent result cache shared across runs and
//	                       processes (DESIGN.md §12)
//	-checkpoint-dir DIR    warm-up and mid-run checkpoints; a rerun resumes
//	                       from the last valid one (DESIGN.md §14)
//	-checkpoint-every N    measured instructions between mid-run checkpoints
//	                       (0 = warm-up checkpoints only; needs -checkpoint-dir)
//
// A bad value exits 1 with a "binary: message" line naming the flag,
// before anything is created. Statistics go to stderr, so stdout is
// byte-identical with and without a cache, a server or checkpoints.
package cliutil

import (
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"runtime/pprof"
	"sync"

	"repro/internal/ckpt"
	"repro/internal/experiments"
	"repro/internal/service"
	"repro/internal/sim"
	"repro/internal/store"
)

// Flags names the optional shared flags a binary takes.
type Flags struct {
	Seed, Fidelity, Threshold, Profiling bool
}

// Env is one binary's command-line environment: the shared flag
// values, and once opened, the layers they name.
type Env struct {
	prog   string
	stderr io.Writer
	run    bool // declares -scale, -workers, -sample-sets and -server
	opt    Flags

	scale, fidelity, server string
	cacheDir, ckptDir       string
	cpuProfile, memProfile  string
	seed                    uint64
	workers, sampleSets     int
	ckptEvery               int64
	threshold               float64

	client      *service.Client // built (no I/O) while validating -server
	store       *store.Store    // result cache; nil without -cache-dir
	ckptStore   *store.Store    // checkpoints; nil without -checkpoint-dir
	ckpts       *ckpt.Manager   // non-nil once opened
	stopProf    func() error
	stopSignals func()
	once        sync.Once
}

// New declares the shared flags of a binary that runs experiments.
// Call it before declaring the binary's own flags and parsing.
func New(prog string, opt Flags) *Env {
	return newEnv(prog, flag.CommandLine, true, opt)
}

// NewPersistence declares only the persistence flags, for expd: it
// serves requests that carry their own scale and tier, and it drains
// on SIGTERM with its own handler instead of exiting.
func NewPersistence(prog string) *Env {
	return newEnv(prog, flag.CommandLine, false, Flags{})
}

func newEnv(prog string, fs *flag.FlagSet, run bool, opt Flags) *Env {
	e := &Env{prog: prog, stderr: os.Stderr, run: run, opt: opt}
	if run {
		fs.StringVar(&e.scale, "scale", "test", "simulation scale: unit, test or full")
		fs.IntVar(&e.workers, "workers", DefaultWorkers(), "concurrent simulations (default: one per CPU)")
		fs.IntVar(&e.sampleSets, "sample-sets", 0,
			"LLC set-sampling ratio K of the set-sampled tier: model 1 in K sets (power of two; 0 = default)")
		fs.StringVar(&e.server, "server", "", "expd server URL to fetch results from (empty = compute locally)")
	}
	if opt.Seed {
		fs.Uint64Var(&e.seed, "seed", 1, "workload seed")
	}
	if opt.Fidelity {
		fs.StringVar(&e.fidelity, "fidelity", "exact",
			"simulation tier: exact (bit-identical, default), fastforward or set-sampled (statistical, validated by cmd/tiercheck)")
	}
	if opt.Threshold {
		fs.Float64Var(&e.threshold, "threshold", experiments.DefaultThreshold,
			"Cooperative Partitioning takeover threshold T (0..1)")
	}
	fs.StringVar(&e.cacheDir, "cache-dir", "",
		"persistent result cache directory shared across runs and processes (empty = in-memory only)")
	fs.StringVar(&e.ckptDir, "checkpoint-dir", "",
		"checkpoint directory: warm-up prefixes and mid-run state persist here, and a rerun resumes from the last valid checkpoint (empty = in-memory warm-up sharing only)")
	fs.Int64Var(&e.ckptEvery, "checkpoint-every", 0,
		"measured instructions between mid-run checkpoints (0 = warm-up checkpoints only; requires -checkpoint-dir)")
	if opt.Profiling {
		fs.StringVar(&e.cpuProfile, "cpuprofile", "", "write a CPU profile of the run to this file")
		fs.StringVar(&e.memProfile, "memprofile", "", "write an allocation profile to this file at exit")
	}
	return e
}

// Parse parses the command line and validates every shared flag,
// exiting through Fatal on the first bad one; it creates nothing. The
// returned Config carries the flag-derived fields (Scale, Seed,
// Threshold, Workers, Fidelity) and Open adds the layers. A binary
// without Flags.Fidelity chooses its tiers itself, so -sample-sets
// arrives unresolved in Scale.SampleStride for it to resolve with
// SampleSets.
func (e *Env) Parse() experiments.Config {
	flag.Parse()
	cfg, err := e.validate()
	if err != nil {
		e.Fatal(err)
	}
	return cfg
}

func (e *Env) validate() (cfg experiments.Config, err error) {
	if e.run {
		if cfg.Scale, err = Scale(e.scale); err != nil {
			return cfg, err
		}
		if cfg.Workers, err = Workers(e.workers); err != nil {
			return cfg, err
		}
		cfg.Scale.SampleStride = e.sampleSets
		if e.server != "" {
			if e.client, err = service.NewClient(e.server, service.ClientOptions{Logf: e.Logf}); err != nil {
				return cfg, err
			}
		}
	}
	cfg.Seed = e.seed
	if e.opt.Fidelity {
		if cfg.Fidelity, err = Fidelity(e.fidelity); err != nil {
			return cfg, err
		}
		if cfg.Scale.SampleStride, err = SampleSets(e.sampleSets, cfg.Fidelity); err != nil {
			return cfg, err
		}
	}
	if e.opt.Threshold {
		if cfg.Threshold, err = Threshold(e.threshold); err != nil {
			return cfg, err
		}
	}
	// A negative cadence is a typo; a cadence without a directory
	// protects nothing, since the checkpoints die with the process.
	if e.ckptEvery < 0 {
		return cfg, fmt.Errorf("invalid -checkpoint-every=%d: must be >= 0 (measured instructions between mid-run checkpoints; 0 = warm-up checkpoints only)", e.ckptEvery)
	}
	if e.ckptEvery > 0 && e.ckptDir == "" {
		return cfg, fmt.Errorf("-checkpoint-every=%d requires -checkpoint-dir (mid-run checkpoints need a directory to survive the process)", e.ckptEvery)
	}
	return cfg, nil
}

// Open probes the persistence directories, opens the result store and
// the checkpoint manager, starts the profiles, installs the
// SIGINT/SIGTERM handler (binaries built on New) and completes cfg
// with the layers. From here on every exit path runs the teardown.
// A directory that was never usable is a flag error; a result store
// that fails to open later degrades to none with one warning, because
// a broken cache must never fail a run that could complete without it.
func (e *Env) Open(cfg *experiments.Config) {
	if err := e.open(cfg); err != nil {
		e.Fatal(err)
	}
}

func (e *Env) open(cfg *experiments.Config) error {
	if err := ProbeWritable(e.ckptDir, "-checkpoint-dir"); err != nil {
		return err
	}
	if err := ProbeWritable(e.cacheDir, "-cache-dir"); err != nil {
		return err
	}
	e.store = e.openStore(e.cacheDir)
	e.ckptStore = e.openStore(e.ckptDir)
	e.ckpts = ckpt.New(ckpt.Options{Store: e.ckptStore, Every: uint64(e.ckptEvery), Logf: e.Logf})
	cfg.Store, cfg.Checkpoints = e.store, e.ckpts
	if e.client != nil {
		cfg.Remote = e.client
	}
	if err := e.startProfiles(); err != nil {
		return err
	}
	if e.run {
		e.stopSignals = store.HandleSignals(e.interrupted, e.store, e.ckptStore)
	}
	return nil
}

func (e *Env) openStore(dir string) *store.Store {
	if dir == "" {
		return nil
	}
	s, err := store.Open(dir, store.Options{Logf: e.Logf})
	if err != nil {
		e.Logf("store: %v — continuing without persistent cache", err)
		return nil
	}
	return s
}

// startProfiles begins the CPU profile; the teardown stops it and
// snapshots the heap profile.
func (e *Env) startProfiles() error {
	var cpu *os.File
	if e.cpuProfile != "" {
		f, err := os.Create(e.cpuProfile)
		if err != nil {
			return err
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			f.Close()
			return err
		}
		cpu = f
	}
	e.stopProf = func() error {
		if cpu != nil {
			pprof.StopCPUProfile()
			if err := cpu.Close(); err != nil {
				return err
			}
		}
		if e.memProfile == "" {
			return nil
		}
		f, err := os.Create(e.memProfile)
		if err != nil {
			return err
		}
		runtime.GC() // settle the live heap before the snapshot
		if err := pprof.WriteHeapProfile(f); err != nil {
			f.Close()
			return err
		}
		return f.Close()
	}
	return nil
}

// Logf writes one "binary: message" line to stderr; it is the warning
// sink of every layer Env opens.
func (e *Env) Logf(format string, args ...any) {
	fmt.Fprintf(e.stderr, e.prog+": "+format+"\n", args...)
}

// Fatal reports err, tears down and exits 1.
func (e *Env) Fatal(err error) {
	e.Logf("%v", err)
	e.Exit(1)
}

// Exit tears down and exits with code; a profile that cannot be
// written turns a zero code into 1.
func (e *Env) Exit(code int) {
	if err := e.shutdown(); err != nil {
		e.Logf("%v", err)
		code = max(code, 1)
	}
	os.Exit(code)
}

// Close is the teardown for a normal return; mains defer it.
func (e *Env) Close() {
	if err := e.shutdown(); err != nil {
		e.Fatal(err)
	}
}

// shutdown uninstalls the signal handler, so that a normal exit wins,
// and tears down. Only the main goroutine calls it.
func (e *Env) shutdown() error {
	if e.stopSignals != nil {
		e.stopSignals()
		e.stopSignals = nil
	}
	return e.teardown()
}

// interrupted is the SIGINT/SIGTERM path: store.HandleSignals has
// released the locks and exits 128+signal once this returns.
func (e *Env) interrupted(sig os.Signal) {
	e.teardown()
	e.Logf("interrupted (%v)", sig)
}

// teardown prints one stats line per opened layer, releases the
// stores' lockfiles and stops the profiles, exactly once whichever exit
// path gets here first; only that first call returns the profile error.
func (e *Env) teardown() (err error) {
	e.once.Do(func() {
		if e.ckpts == nil {
			return // never opened: nothing to report or release
		}
		if e.client != nil {
			e.Logf("service: %s", e.client.Stats())
		}
		if e.ckptStore != nil {
			e.ckptStore.ReleaseLocks()
			e.Logf("checkpoints: store: %s", e.ckptStore.Stats())
		}
		e.Logf("ckpt: %s", e.ckpts.Stats())
		if e.store != nil {
			e.store.ReleaseLocks()
			e.Logf("store: %s", e.store.Stats())
		}
		if e.stopProf != nil {
			err = e.stopProf()
		}
	})
	return err
}

// Scale resolves a -scale flag value to its sim.Scale.
func Scale(name string) (sim.Scale, error) {
	switch name {
	case "unit":
		return sim.UnitScale(), nil
	case "test":
		return sim.TestScale(), nil
	case "full":
		return sim.FullScale(), nil
	default:
		return sim.Scale{}, fmt.Errorf("unknown scale %q (unit, test or full)", name)
	}
}

// Fidelity resolves a -fidelity flag value.
func Fidelity(name string) (sim.Fidelity, error) {
	return sim.ParseFidelity(name)
}

// DefaultWorkers is the -workers flag default: one worker per CPU.
// Binaries default the flag to this (rather than a 0 sentinel) so an
// explicit -workers=0 is distinguishable from "unset" and can be
// rejected by Workers.
func DefaultWorkers() int { return runtime.GOMAXPROCS(0) }

// Workers validates a -workers flag value. Zero or negative worker
// counts are configuration errors: the library layer would quietly
// substitute a default, hiding a typo like -workers=O or a broken
// wrapper script computing 0.
func Workers(n int) (int, error) {
	if n <= 0 {
		return 0, fmt.Errorf("invalid -workers=%d: must be >= 1 (default: one per CPU, %d here)",
			n, DefaultWorkers())
	}
	return n, nil
}

// SampleSets validates the -sample-sets/-fidelity flag pair: the LLC
// set-sampling ratio K is meaningful only on the set-sampled tier
// (sim.NewSystem rejects it elsewhere — catch the contradiction at
// flag parse time with a flag-vocabulary message), and an unset K on
// that tier resolves to sim.DefaultSampleStride here so the effective
// ratio is explicit in the run's scale fingerprint.
func SampleSets(k int, fid sim.Fidelity) (int, error) {
	if k < 0 || (k != 0 && k&(k-1) != 0) {
		return 0, fmt.Errorf("invalid -sample-sets=%d: must be a power of two", k)
	}
	if k != 0 && fid != sim.FidelitySetSampled {
		return 0, fmt.Errorf("-sample-sets=%d requires -fidelity=set-sampled", k)
	}
	if k == 0 && fid == sim.FidelitySetSampled {
		k = sim.DefaultSampleStride
	}
	return k, nil
}

// Threshold validates a -threshold flag value (a miss-rate fraction).
func Threshold(t float64) (float64, error) {
	if t != t || t < 0 || t > 1 {
		return 0, fmt.Errorf("invalid -threshold=%v: must be in [0, 1]", t)
	}
	return t, nil
}

// ProbeWritable fails fast when a persistence flag points at a
// directory the process cannot write. The directory is created if
// missing (exactly what the store layer would do later) and a probe
// file is round-tripped through it. A flag that opts into persistence
// must not silently degrade from the first cycle — mid-run failures
// still use the store's graceful-degradation ladder, but a directory
// that was never usable is a configuration error. An empty dir means
// the flag is unset and passes.
func ProbeWritable(dir, flagName string) error {
	if dir == "" {
		return nil
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return fmt.Errorf("%s=%s: cannot create directory: %v", flagName, dir, err)
	}
	f, err := os.CreateTemp(dir, ".writable-probe-*")
	if err != nil {
		return fmt.Errorf("%s=%s: directory is not writable: %v", flagName, dir, err)
	}
	name := f.Name()
	f.Close()
	os.Remove(name)
	return nil
}
