package service

import (
	"bytes"
	"encoding/json"
	"errors"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"

	"repro/internal/experiments"
	"repro/internal/sim"
	"repro/internal/wire"
	"repro/internal/workload"
)

// quietf is a Logf that routes warnings to the test log.
func quietf(t *testing.T) func(string, ...any) {
	return func(format string, args ...any) { t.Logf("service: "+format, args...) }
}

// newTestServer starts an in-process expd over httptest and returns
// its base URL plus the Server for drain/progress assertions.
func newTestServer(t *testing.T) (string, *Server, *httptest.Server) {
	t.Helper()
	srv := NewServer(ServerOptions{Logf: quietf(t)})
	hs := httptest.NewServer(srv.Handler())
	t.Cleanup(hs.Close)
	return hs.URL, srv, hs
}

// newTestClient builds a client with fast, deterministic retry timing.
func newTestClient(t *testing.T, base string, opts ClientOptions) *Client {
	t.Helper()
	if opts.Logf == nil {
		opts.Logf = quietf(t)
	}
	if opts.RequestTimeout == 0 {
		opts.RequestTimeout = 10 * time.Second
	}
	if opts.BackoffBase == 0 {
		opts.BackoffBase = time.Millisecond
	}
	if opts.BackoffMax == 0 {
		opts.BackoffMax = 2 * time.Millisecond
	}
	c, err := NewClient(base, opts)
	if err != nil {
		t.Fatal(err)
	}
	return c
}

func mustGroup(t *testing.T, name string) workload.Group {
	t.Helper()
	g, err := workload.FindGroup(name)
	if err != nil {
		t.Fatal(err)
	}
	return g
}

// mustJSON compares by canonical JSON: the same representation the
// store and the wire use, so "byte-identical" means what it does in
// production.
func mustJSON(t *testing.T, v any) string {
	t.Helper()
	b, err := json.Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	return string(b)
}

func TestClientURLValidation(t *testing.T) {
	for _, bad := range []string{"not a url", "ftp://host", "http://"} {
		if _, err := NewClient(bad, ClientOptions{}); err == nil {
			t.Errorf("NewClient(%q): expected error", bad)
		}
	}
}

// TestRemoteMatchesLocal: a healthy server serves results that are
// JSON-byte-identical to a purely local computation, and the client's
// runner performs zero simulations itself.
func TestRemoteMatchesLocal(t *testing.T) {
	base, _, _ := newTestServer(t)
	cl := newTestClient(t, base, ClientOptions{})
	sc := sim.UnitScale()
	g := mustGroup(t, "G2-1")

	local := experiments.NewRunner(experiments.Config{Scale: sc})
	want, err := local.RunGroupFidelity(g, sim.CoopPart, experiments.DefaultThreshold,
		experiments.VariantNone, sim.FidelityExact)
	if err != nil {
		t.Fatal(err)
	}

	remote := experiments.NewRunner(experiments.Config{Scale: sc, Remote: cl})
	got, err := remote.RunGroupFidelity(g, sim.CoopPart, experiments.DefaultThreshold,
		experiments.VariantNone, sim.FidelityExact)
	if err != nil {
		t.Fatal(err)
	}
	if mustJSON(t, got) != mustJSON(t, want) {
		t.Fatal("remote result differs from local computation")
	}
	if n := remote.Simulations(); n != 0 {
		t.Fatalf("client-side runner simulated %d times; the server should have", n)
	}
	st := cl.Stats()
	if st.RemoteHits == 0 || st.LocalFallbacks != 0 || st.Degraded {
		t.Fatalf("unexpected client stats: %v", st)
	}

	// Solo runs and profiles ride the same exchange.
	wantAlone, err := local.AloneResults(g.Benchmarks[0], 2)
	if err != nil {
		t.Fatal(err)
	}
	gotAlone, err := remote.AloneResults(g.Benchmarks[0], 2)
	if err != nil {
		t.Fatal(err)
	}
	if mustJSON(t, gotAlone) != mustJSON(t, wantAlone) {
		t.Fatal("remote alone result differs from local computation")
	}
	if n := remote.Simulations(); n != 0 {
		t.Fatalf("client-side runner simulated %d times for alone run", n)
	}
}

// TestEveryFaultScheduleConverges is the proof obligation of the fault
// seam: for every injected fault kind, a sweep through a faulty
// transport still ends in results byte-identical to the serverless
// baseline — via retry when the fault is transient, via local
// fallback when the server is effectively gone. Never an error.
func TestEveryFaultScheduleConverges(t *testing.T) {
	restore := sleepFn
	sleepFn = func(time.Duration) {}
	defer func() { sleepFn = restore }()

	sc := sim.UnitScale()
	g := mustGroup(t, "G2-1")
	baseline := experiments.NewRunner(experiments.Config{Scale: sc})
	want, err := baseline.RunGroupFidelity(g, sim.UCP, experiments.DefaultThreshold,
		experiments.VariantNone, sim.FidelityExact)
	if err != nil {
		t.Fatal(err)
	}

	schedules := []struct {
		name   string
		config func(tr *FaultTripper)
	}{
		{"clean", func(tr *FaultTripper) {}},
		{"drop-first", func(tr *FaultTripper) { tr.FailCall(1, FaultDrop) }},
		{"5xx-first", func(tr *FaultTripper) { tr.FailCall(1, Fault5xx) }},
		{"truncate-first", func(tr *FaultTripper) { tr.FailCall(1, FaultTruncate) }},
		{"corrupt-first", func(tr *FaultTripper) { tr.FailCall(1, FaultCorrupt) }},
		{"delay-first", func(tr *FaultTripper) { tr.Delay = time.Second; tr.FailCall(1, FaultDelay) }},
		{"double-drop", func(tr *FaultTripper) { tr.FailCall(1, FaultDrop); tr.FailCall(2, FaultDrop) }},
		{"mixed", func(tr *FaultTripper) { tr.FailCall(1, Fault5xx); tr.FailCall(2, FaultCorrupt) }},
		{"dead-server", func(tr *FaultTripper) { tr.FailFrom(1, FaultDrop) }},
	}
	for _, sched := range schedules {
		t.Run(sched.name, func(t *testing.T) {
			base, _, _ := newTestServer(t)
			tr := &FaultTripper{}
			sched.config(tr)
			cl := newTestClient(t, base, ClientOptions{
				Transport:      tr,
				RequestTimeout: 100 * time.Millisecond, // undercuts the 1s delay fault
				MaxAttempts:    3,
				MaxFailures:    4,
			})
			remote := experiments.NewRunner(experiments.Config{Scale: sc, Remote: cl})
			got, err := remote.RunGroupFidelity(g, sim.UCP, experiments.DefaultThreshold,
				experiments.VariantNone, sim.FidelityExact)
			if err != nil {
				t.Fatalf("fault schedule surfaced an error: %v", err)
			}
			if mustJSON(t, got) != mustJSON(t, want) {
				t.Fatal("result under faults differs from baseline")
			}
			st := cl.Stats()
			if st.RemoteHits+st.LocalFallbacks == 0 {
				t.Fatalf("request accounted to neither remote nor fallback: %v", st)
			}
			if tr.Fired() == 0 && sched.name != "clean" {
				t.Fatal("fault schedule never fired")
			}
		})
	}
}

// TestDeadServerDegradesOnce: with every round trip failing, the
// client crosses MaxFailures, warns, disables itself, and stops
// touching the network — while the sweep completes locally with
// baseline-identical results.
func TestDeadServerDegradesOnce(t *testing.T) {
	restore := sleepFn
	sleepFn = func(time.Duration) {}
	defer func() { sleepFn = restore }()

	sc := sim.UnitScale()
	baseline := experiments.NewRunner(experiments.Config{Scale: sc})
	tr := &FaultTripper{}
	tr.FailFrom(1, FaultDrop)
	cl := newTestClient(t, "http://127.0.0.1:9", ClientOptions{
		Transport: tr, MaxAttempts: 2, MaxFailures: 3,
	})
	remote := experiments.NewRunner(experiments.Config{Scale: sc, Remote: cl})

	for _, name := range []string{"G2-1", "G2-2", "G2-3", "G2-4"} {
		g := mustGroup(t, name)
		want, err := baseline.RunGroup(g, sim.FairShare)
		if err != nil {
			t.Fatal(err)
		}
		got, err := remote.RunGroup(g, sim.FairShare)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if mustJSON(t, got) != mustJSON(t, want) {
			t.Fatalf("%s: degraded result differs from baseline", name)
		}
	}
	if !cl.Degraded() {
		t.Fatal("client never degraded against a dead server")
	}
	calls := tr.Calls()
	if calls == 0 {
		t.Fatal("no transport calls recorded")
	}
	// Further work must not touch the transport at all.
	g := mustGroup(t, "G2-5")
	if _, err := remote.RunGroup(g, sim.FairShare); err != nil {
		t.Fatal(err)
	}
	if tr.Calls() != calls {
		t.Fatalf("degraded client still issued transport calls (%d -> %d)", calls, tr.Calls())
	}
}

// TestKeyMismatchIsPermanent: a 409 (the two sides disagree what a key
// means) must not be retried — it degrades the client immediately.
func TestKeyMismatchIsPermanent(t *testing.T) {
	restore := sleepFn
	sleepFn = func(time.Duration) {}
	defer func() { sleepFn = restore }()

	base, _, _ := newTestServer(t)
	tr := &FaultTripper{}
	cl := newTestClient(t, base, ClientOptions{Transport: tr, MaxAttempts: 5})
	g := mustGroup(t, "G2-1")
	_, ok := cl.RemoteRun("run|bogus-key", sim.UnitScale(), 1, g,
		sim.CoopPart, experiments.DefaultThreshold, experiments.VariantNone, sim.FidelityExact)
	if ok {
		t.Fatal("key mismatch returned a result")
	}
	if !cl.Degraded() {
		t.Fatal("key mismatch did not degrade the client")
	}
	if tr.Calls() != 1 {
		t.Fatalf("permanent failure was retried: %d calls", tr.Calls())
	}
}

// TestServerRejectsGarbage: malformed bodies, a version-1 JSON body,
// bad fidelity, unknown kinds, frames of another version or key, and
// wrong methods.
func TestServerRejectsGarbage(t *testing.T) {
	base, _, _ := newTestServer(t)
	post := func(body []byte) int {
		resp, err := http.Post(base+"/v1/run", contentType, bytes.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		return resp.StatusCode
	}
	frame := func(f wire.Format, key string, req RunRequest) []byte {
		b, err := f.Encode(key, req)
		if err != nil {
			t.Fatal(err)
		}
		return b
	}
	for name, body := range map[string][]byte{
		"malformed body":  []byte("{not json"),
		"v1 JSON body":    []byte(`{"kind":"run","key":"k","fidelity":"exact"}`),
		"bad fidelity":    frame(frameFormat, "k", RunRequest{Kind: KindRun, Key: "k", Fidelity: "warp9"}),
		"unknown kind":    frame(frameFormat, "k", RunRequest{Kind: "teleport", Key: "k", Fidelity: "exact"}),
		"other version":   frame(wire.NewFormat("coopserv", ProtocolVersion+1), "k", RunRequest{Kind: KindRun, Key: "k", Fidelity: "exact"}),
		"frame key skew":  frame(frameFormat, "k", RunRequest{Kind: KindRun, Key: "other", Fidelity: "exact"}),
		"truncated frame": frame(frameFormat, "k", RunRequest{Kind: KindRun, Key: "k", Fidelity: "exact"})[:70],
	} {
		if code := post(body); code != http.StatusBadRequest {
			t.Errorf("%s: %d, want 400", name, code)
		}
	}
	resp, err := http.Get(base + "/v1/run")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusMethodNotAllowed {
		t.Fatalf("GET /v1/run: %d", resp.StatusCode)
	}
}

// TestRunnerPerScaleAndSeed: the server keys its runners by the whole
// Scale value and the seed, so two scales that differ in one field
// never share a memo.
func TestRunnerPerScaleAndSeed(t *testing.T) {
	srv := NewServer(ServerOptions{Logf: quietf(t)})
	sc := sim.UnitScale()
	other := sc
	other.MSHRs++
	r := srv.runner(sc, 1)
	if srv.runner(sc, 1) != r {
		t.Fatal("same (scale, seed) built a second runner")
	}
	if srv.runner(other, 1) == r {
		t.Fatal("scales differing only in MSHRs share a runner")
	}
	if srv.runner(sc, 2) == r {
		t.Fatal("seeds 1 and 2 share a runner")
	}
	if n := srv.Snapshot().Runners; n != 3 {
		t.Fatalf("%d runners, want 3", n)
	}
}

// TestDrainSemantics: draining flips /readyz and /v1/run to 503 while
// /healthz stays 200 — and the client treats the 503 as one more
// transient on the road to local fallback, not an error.
func TestDrainSemantics(t *testing.T) {
	restore := sleepFn
	sleepFn = func(time.Duration) {}
	defer func() { sleepFn = restore }()

	base, srv, _ := newTestServer(t)
	get := func(path string) int {
		resp, err := http.Get(base + path)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		return resp.StatusCode
	}
	if code := get("/healthz"); code != http.StatusOK {
		t.Fatalf("healthz before drain: %d", code)
	}
	if code := get("/readyz"); code != http.StatusOK {
		t.Fatalf("readyz before drain: %d", code)
	}
	srv.BeginDrain()
	if code := get("/healthz"); code != http.StatusOK {
		t.Fatalf("healthz during drain: %d", code)
	}
	if code := get("/readyz"); code != http.StatusServiceUnavailable {
		t.Fatalf("readyz during drain: %d", code)
	}

	cl := newTestClient(t, base, ClientOptions{MaxAttempts: 2, MaxFailures: 2})
	sc := sim.UnitScale()
	remote := experiments.NewRunner(experiments.Config{Scale: sc, Remote: cl})
	local := experiments.NewRunner(experiments.Config{Scale: sc})
	g := mustGroup(t, "G2-1")
	want, err := local.RunGroup(g, sim.Unmanaged)
	if err != nil {
		t.Fatal(err)
	}
	got, err := remote.RunGroup(g, sim.Unmanaged)
	if err != nil {
		t.Fatalf("run against draining server errored: %v", err)
	}
	if mustJSON(t, got) != mustJSON(t, want) {
		t.Fatal("fallback result differs from baseline")
	}
	if cl.Stats().LocalFallbacks == 0 {
		t.Fatal("draining server did not register a local fallback")
	}
}

// TestProgressEndpoint: the snapshot counts requests and runs.
func TestProgressEndpoint(t *testing.T) {
	base, srv, _ := newTestServer(t)
	cl := newTestClient(t, base, ClientOptions{})
	g := mustGroup(t, "G2-1")
	remote := experiments.NewRunner(experiments.Config{Scale: sim.UnitScale(), Remote: cl})
	if _, err := remote.RunGroup(g, sim.Unmanaged); err != nil {
		t.Fatal(err)
	}
	resp, err := http.Get(base + "/v1/progress")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var p Progress
	if err := json.NewDecoder(resp.Body).Decode(&p); err != nil {
		t.Fatal(err)
	}
	if p.Requests == 0 || p.RunsCompleted == 0 || p.SimulationsStarted == 0 || p.Runners == 0 {
		t.Fatalf("implausible progress: %+v", p)
	}
	if got := srv.Snapshot(); got.RunsCompleted != p.RunsCompleted {
		t.Fatalf("snapshot disagrees with endpoint: %+v vs %+v", got, p)
	}
}

// TestEnvelopeVerification pins the response frame's self-checks and
// which failures the client may retry.
func TestEnvelopeVerification(t *testing.T) {
	payload := map[string]int{"x": 42}
	enc, err := frameFormat.Encode("k1", payload)
	if err != nil {
		t.Fatal(err)
	}
	var out map[string]int
	if err := frameFormat.Decode(enc, "k1", &out); err != nil {
		t.Fatal(err)
	}
	if out["x"] != 42 {
		t.Fatalf("round trip lost the payload: %v", out)
	}
	otherVersion, err := wire.NewFormat("coopserv", ProtocolVersion+1).Encode("k1", payload)
	if err != nil {
		t.Fatal(err)
	}
	flipped := append([]byte(nil), enc...)
	flipped[len(flipped)-1] ^= 1
	var wrongType []string
	for _, c := range []struct {
		name string
		body []byte
		into any
		want error
	}{
		{"key mismatch", enc, &out, wire.ErrKey},
		{"truncation", enc[:len(enc)-3], &out, wire.ErrCorrupt},
		{"corruption", flipped, &out, wire.ErrCorrupt},
		{"garbage", []byte("junk\n{}"), &out, wire.ErrCorrupt},
		{"v1 envelope", []byte(`{"magic":"coopserve","version":1,"key":"k1","len":8,"sha256":"x"}` + "\n{\"x\":42}"), &out, wire.ErrCorrupt},
		{"other version", otherVersion, &out, wire.ErrVersion},
		{"other result type", enc, &wrongType, wire.ErrSchema},
	} {
		key := "k1"
		if c.name == "key mismatch" {
			key = "other"
		}
		if err := frameFormat.Decode(c.body, key, c.into); !errors.Is(err, c.want) {
			t.Errorf("%s: err = %v, want %v", c.name, err, c.want)
		}
	}
}

// TestResponseSkewIsPermanent: a server answering with a frame of
// another protocol version is skew no retry can cure — the client
// degrades after one call instead of retrying.
func TestResponseSkewIsPermanent(t *testing.T) {
	restore := sleepFn
	sleepFn = func(time.Duration) {}
	defer func() { sleepFn = restore }()

	hs := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		body, _ := wire.NewFormat("coopserv", ProtocolVersion+1).Encode("k1", sim.Results{})
		w.Write(body)
	}))
	t.Cleanup(hs.Close)
	tr := &FaultTripper{}
	cl := newTestClient(t, hs.URL, ClientOptions{Transport: tr, MaxAttempts: 5})
	if _, ok := cl.RemoteAlone("k1", sim.UnitScale(), 1, "gcc", 2, sim.FidelityExact); ok {
		t.Fatal("skewed response returned a result")
	}
	if !cl.Degraded() || tr.Calls() != 1 {
		t.Fatalf("degraded=%v after %d calls; want degraded after 1", cl.Degraded(), tr.Calls())
	}
}

// BenchmarkServiceRoundTrip measures one warm remote lookup end to end
// (HTTP + frame encode + verification + decode, result already memoised
// server-side) — the per-request overhead DESIGN.md §13 quotes.
func BenchmarkServiceRoundTrip(b *testing.B) {
	srv := NewServer(ServerOptions{Logf: func(string, ...any) {}})
	hs := httptest.NewServer(srv.Handler())
	defer hs.Close()
	cl, err := NewClient(hs.URL, ClientOptions{Logf: func(string, ...any) {}})
	if err != nil {
		b.Fatal(err)
	}
	g, err := workload.FindGroup("G2-1")
	if err != nil {
		b.Fatal(err)
	}
	sc := sim.UnitScale()
	local := experiments.NewRunner(experiments.Config{Scale: sc})
	key := local.RunKey(g, sim.CoopPart, experiments.DefaultThreshold,
		experiments.VariantNone, sim.FidelityExact)
	if _, ok := cl.RemoteRun(key, sc, 1, g, sim.CoopPart,
		experiments.DefaultThreshold, experiments.VariantNone, sim.FidelityExact); !ok {
		b.Fatal("warmup request failed")
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, ok := cl.RemoteRun(key, sc, 1, g, sim.CoopPart,
			experiments.DefaultThreshold, experiments.VariantNone, sim.FidelityExact); !ok {
			b.Fatal("warm request failed")
		}
	}
}
