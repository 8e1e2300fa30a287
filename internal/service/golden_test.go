package service

import (
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"io"
	"net/http"
	"testing"

	"repro/internal/experiments"
	"repro/internal/sim"
)

// recordingTransport captures every request body the client sends and
// fails the round trip, so nothing is answered.
type recordingTransport struct{ bodies [][]byte }

func (rt *recordingTransport) RoundTrip(req *http.Request) (*http.Response, error) {
	body, err := io.ReadAll(req.Body)
	if err != nil {
		return nil, err
	}
	rt.bodies = append(rt.bodies, body)
	return nil, errors.New("recorded")
}

// TestKeysAndFramesAreStable pins, at UnitScale, the exact store-key
// strings of group, solo and profile jobs and the SHA-256 of the
// /v1/run request frames the client sends. The other key tests check
// that keys are distinct, not that they are stable; a change caught
// here would silently orphan every existing -cache-dir or break peers
// of the same ProtocolVersion, so it must come with a
// store.FormatVersion or ProtocolVersion bump.
func TestKeysAndFramesAreStable(t *testing.T) {
	sc := sim.UnitScale()
	r := experiments.NewRunner(experiments.Config{Scale: sc})
	g := mustGroup(t, "G2-1")
	run := experiments.Request{Group: g, Scheme: sim.CoopPart, Threshold: experiments.DefaultThreshold}
	alone := experiments.Request{Kind: experiments.KindAlone, Benchmark: "soplex", Cores: 2}
	for _, c := range []struct {
		req  experiments.Request
		want string
	}{
		{run, "run|scale=2f86ffeac64fa298|seed=1|group=G2-1|scheme=CoopPart|threshold=0.05|variant=|fidelity=exact"},
		{experiments.Request{Group: g, Scheme: sim.DynCPE, Variant: experiments.VariantNoGating,
			Fidelity: sim.FidelitySetSampled},
			"run|scale=2f86ffeac64fa298|seed=1|group=G2-1|scheme=DynCPE|threshold=0|variant=no-gating|fidelity=set-sampled"},
		{alone, "alone|scale=2f86ffeac64fa298|seed=1|benchmark=soplex|cores=2|fidelity=exact"},
		{experiments.Request{Kind: experiments.KindProfile, Benchmark: "namd", Cores: 4,
			Fidelity: sim.FidelityFastForward},
			"profile|scale=2f86ffeac64fa298|seed=1|benchmark=namd|cores=4|fidelity=fastforward"},
	} {
		if got := r.Key(c.req); got != c.want {
			t.Errorf("key changed:\n got %q\nwant %q", got, c.want)
		}
	}

	rt := &recordingTransport{}
	cl := newTestClient(t, "http://expd", ClientOptions{Transport: rt, MaxAttempts: 1, MaxFailures: 100})
	cl.RemoteRun(r.Key(run), sc, 1, g, sim.CoopPart, experiments.DefaultThreshold,
		experiments.VariantNone, sim.FidelityExact)
	cl.RemoteAlone(r.Key(alone), sc, 1, "soplex", 2, sim.FidelityExact)
	want := []string{
		"f23cde2c03f07627d14c5e7b0483bd6c1c0a30fe94336d2376ec8368e3880502",
		"e6667186ed58f2b5d9f554e434567386d16dcd668b60ed31871a15ed828864b8",
	}
	if len(rt.bodies) != len(want) {
		t.Fatalf("client sent %d request frames, want %d", len(rt.bodies), len(want))
	}
	for i, body := range rt.bodies {
		sum := sha256.Sum256(body)
		if got := hex.EncodeToString(sum[:]); got != want[i] {
			t.Errorf("request frame %d changed: sha256 %s, want %s", i, got, want[i])
		}
	}
}
