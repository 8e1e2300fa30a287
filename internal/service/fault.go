package service

import (
	"bytes"
	"errors"
	"io"
	"net/http"
	"sync"
	"time"
)

// Fault names one kind of injected network failure.
type Fault uint8

const (
	// FaultNone proceeds normally.
	FaultNone Fault = iota
	// FaultDrop fails the round trip with a transport error before the
	// request reaches the server (connection refused / reset).
	FaultDrop
	// FaultDelay stalls the round trip by the configured Delay before
	// proceeding; with a delay past the client's RequestTimeout the
	// request dies on its context deadline (a hung server).
	FaultDelay
	// Fault5xx replaces the response with a synthetic 500.
	Fault5xx
	// FaultTruncate cuts the real response body in half (a torn
	// transfer); the frame's length check catches it.
	FaultTruncate
	// FaultCorrupt flips one bit of the real response payload; the
	// frame's checksum catches it.
	FaultCorrupt
	faultCount
)

var faultNames = [...]string{"none", "drop", "delay", "5xx", "truncate", "corrupt"}

func (f Fault) String() string {
	if int(f) < len(faultNames) {
		return faultNames[f]
	}
	return "fault(?)"
}

// ErrDropped is the transport error FaultDrop injects.
var ErrDropped = errors.New("service: injected connection drop")

// FaultTripper is the network analogue of store.FaultFS: an
// http.RoundTripper wrapping a real transport with a deterministic
// per-call fault schedule — drop, delay, 5xx, truncated body, corrupt
// payload. The robustness tests drive every schedule through a real
// client and server and assert the run still ends in a correct remote
// result or a correct local fallback, never an error or a byte
// difference.
type FaultTripper struct {
	// Real is the wrapped transport; http.DefaultTransport if nil.
	Real http.RoundTripper
	// Delay is how long FaultDelay stalls.
	Delay time.Duration

	mu        sync.Mutex
	calls     int
	sched     map[int]Fault
	from      int   // 1-based call number FailFrom starts at; 0 = off
	fromFault Fault // fault every call >= from suffers
	fired     int
}

// FailCall schedules fault f on the nth (1-based) round trip.
func (t *FaultTripper) FailCall(n int, f Fault) {
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.sched == nil {
		t.sched = make(map[int]Fault)
	}
	t.sched[n] = f
}

// FailFrom applies fault f to every round trip from the nth (1-based)
// on — the shape of a server that dies and stays dead.
func (t *FaultTripper) FailFrom(n int, f Fault) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.from, t.fromFault = n, f
}

// Calls returns how many round trips have been issued.
func (t *FaultTripper) Calls() int {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.calls
}

// Fired returns how many scheduled faults have triggered.
func (t *FaultTripper) Fired() int {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.fired
}

func (t *FaultTripper) next() Fault {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.calls++
	f, ok := t.sched[t.calls]
	if !ok && t.from > 0 && t.calls >= t.from {
		f = t.fromFault
	}
	if f != FaultNone {
		t.fired++
	}
	return f
}

func (t *FaultTripper) real() http.RoundTripper {
	if t.Real != nil {
		return t.Real
	}
	return http.DefaultTransport
}

// RoundTrip implements http.RoundTripper.
func (t *FaultTripper) RoundTrip(req *http.Request) (*http.Response, error) {
	switch f := t.next(); f {
	case FaultDrop:
		return nil, ErrDropped
	case FaultDelay:
		select {
		case <-time.After(t.Delay):
		case <-req.Context().Done():
			return nil, req.Context().Err()
		}
		return t.real().RoundTrip(req)
	case Fault5xx:
		return &http.Response{
			Status:     "500 Internal Server Error (injected)",
			StatusCode: http.StatusInternalServerError,
			Proto:      "HTTP/1.1", ProtoMajor: 1, ProtoMinor: 1,
			Body:    io.NopCloser(bytes.NewReader([]byte("injected 5xx"))),
			Header:  make(http.Header),
			Request: req,
		}, nil
	case FaultTruncate, FaultCorrupt:
		resp, err := t.real().RoundTrip(req)
		if err != nil {
			return resp, err
		}
		data, rerr := io.ReadAll(resp.Body)
		resp.Body.Close()
		if rerr != nil {
			return nil, rerr
		}
		if f == FaultTruncate {
			data = data[:len(data)/2]
		} else if len(data) > 0 {
			// Flip a bit in the payload tail, past the frame header
			// and key, so the checksum (not a header field) catches it.
			data[len(data)-1] ^= 1
		}
		resp.Body = io.NopCloser(bytes.NewReader(data))
		resp.ContentLength = int64(len(data))
		resp.Header.Del("Content-Length")
		return resp, nil
	default:
		return t.real().RoundTrip(req)
	}
}
