package wire_test

import (
	"encoding/json"
	"errors"
	"math"
	"reflect"
	"sync"
	"testing"

	"repro/internal/partition"
	"repro/internal/service"
	"repro/internal/sim"
	"repro/internal/wire"
	"repro/internal/workload"
)

var testFormat = wire.NewFormat("testwire", 1)

// fillMode selects what fill puts in every slice, map, pointer and
// float it reaches.
type fillMode int

const (
	fillFull    fillMode = iota // every leaf non-zero, containers of two
	fillEmpty                   // containers empty but non-nil
	fillNil                     // containers and pointers nil
	fillSpecial                 // like fillFull, floats cycle NaN, +Inf, -Inf, -0
)

var rawMessage = reflect.TypeOf(json.RawMessage(nil))

// fill sets every exported field reachable from v, deterministically,
// so a round trip that drops or misplaces any field shows.
func fill(v reflect.Value, mode fillMode, seq *int) {
	*seq++
	n := *seq
	switch v.Kind() {
	case reflect.Bool:
		v.SetBool(true)
	case reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64:
		x := int64(n%100 + 1)
		if n%2 == 0 {
			x = -x
		}
		if v.Type().Size() == 8 {
			x *= 1 << 40
		}
		v.SetInt(x)
	case reflect.Uint, reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64, reflect.Uintptr:
		x := uint64(n%100 + 1)
		if v.Type().Size() == 8 {
			x |= 1 << 63
		}
		v.SetUint(x)
	case reflect.Float32, reflect.Float64:
		x := float64(n) + 1.0/3.0
		if mode == fillSpecial {
			x = []float64{math.NaN(), math.Inf(1), math.Inf(-1), math.Copysign(0, -1)}[n%4]
		}
		v.SetFloat(x)
	case reflect.String:
		v.SetString("s" + string(rune('a'+n%26)))
	case reflect.Pointer:
		if mode == fillNil {
			return
		}
		p := reflect.New(v.Type().Elem())
		fill(p.Elem(), mode, seq)
		v.Set(p)
	case reflect.Slice:
		switch {
		case mode == fillNil:
		case v.Type() == rawMessage:
			v.SetBytes([]byte(`{"state":[1,2,3]}`))
		case mode == fillEmpty:
			v.Set(reflect.MakeSlice(v.Type(), 0, 0))
		default:
			s := reflect.MakeSlice(v.Type(), 2, 2)
			for i := 0; i < 2; i++ {
				fill(s.Index(i), mode, seq)
			}
			v.Set(s)
		}
	case reflect.Array:
		for i := 0; i < v.Len(); i++ {
			fill(v.Index(i), mode, seq)
		}
	case reflect.Map:
		switch mode {
		case fillNil:
		case fillEmpty:
			v.Set(reflect.MakeMap(v.Type()))
		default:
			m := reflect.MakeMap(v.Type())
			for i := 0; i < 2; i++ {
				k := reflect.New(v.Type().Key()).Elem()
				fill(k, mode, seq)
				e := reflect.New(v.Type().Elem()).Elem()
				fill(e, mode, seq)
				m.SetMapIndex(k, e)
			}
			v.Set(m)
		}
	case reflect.Struct:
		for i := 0; i < v.NumField(); i++ {
			if v.Type().Field(i).IsExported() {
				fill(v.Field(i), mode, seq)
			}
		}
	}
}

// payloadTypes are the types the platform frames: store entries
// (results, profiles, checkpoint snapshots) and the /v1/run request.
var payloadTypes = []reflect.Type{
	reflect.TypeOf(sim.Results{}),
	reflect.TypeOf(partition.CoreProfile{}),
	reflect.TypeOf(sim.Snapshot{}),
	reflect.TypeOf(service.RunRequest{}),
}

// TestRoundTripPayloadTypes: for every framed type, with every field
// non-zero, with empty and with nil containers, and with NaN and ±Inf
// floats, a frame decodes to a value equal to the one encoded — and,
// where JSON can represent the value at all, equal to what a JSON
// round trip of it yields.
func TestRoundTripPayloadTypes(t *testing.T) {
	for _, typ := range payloadTypes {
		for _, mode := range []fillMode{fillFull, fillEmpty, fillNil, fillSpecial} {
			seq := 0
			in := reflect.New(typ)
			fill(in.Elem(), mode, &seq)

			frame, err := testFormat.Encode("k", in.Interface())
			if err != nil {
				t.Fatalf("%s/%d: encode: %v", typ, mode, err)
			}
			out := reflect.New(typ)
			if err := testFormat.Decode(frame, "k", out.Interface()); err != nil {
				t.Fatalf("%s/%d: decode: %v", typ, mode, err)
			}
			again, err := testFormat.Encode("k", out.Interface())
			if err != nil || string(again) != string(frame) {
				t.Fatalf("%s/%d: re-encoding the decoded value changed the frame (%v)", typ, mode, err)
			}

			// The reference is the JSON round trip (which, for one, turns
			// an empty omitempty slice into nil). Where JSON has no
			// faithful form — it refuses NaN and ±Inf, and turns a nil
			// json.RawMessage into "null" — it is the value itself.
			want := in
			if mode != fillSpecial && !(mode == fillNil && typ == reflect.TypeOf(sim.Snapshot{})) {
				js, err := json.Marshal(in.Interface())
				if err != nil {
					t.Fatalf("%s/%d: json: %v", typ, mode, err)
				}
				want = reflect.New(typ)
				if err := json.Unmarshal(js, want.Interface()); err != nil {
					t.Fatal(err)
				}
			}
			if !bitsEqual(want.Elem(), out.Elem()) {
				t.Fatalf("%s/%d: round trip differs from the reference:\nwire %+v\nwant %+v",
					typ, mode, out.Elem(), want.Elem())
			}
		}
	}
}

// bitsEqual is reflect.DeepEqual with floats compared by their bits,
// so NaN equals NaN and -0 differs from +0.
func bitsEqual(a, b reflect.Value) bool {
	switch a.Kind() {
	case reflect.Float32, reflect.Float64:
		return math.Float64bits(a.Float()) == math.Float64bits(b.Float())
	case reflect.Pointer:
		if a.IsNil() || b.IsNil() {
			return a.IsNil() == b.IsNil()
		}
		return bitsEqual(a.Elem(), b.Elem())
	case reflect.Slice:
		if a.IsNil() != b.IsNil() || a.Len() != b.Len() {
			return false
		}
		fallthrough
	case reflect.Array:
		for i := 0; i < a.Len(); i++ {
			if !bitsEqual(a.Index(i), b.Index(i)) {
				return false
			}
		}
		return true
	case reflect.Map:
		if a.IsNil() != b.IsNil() || a.Len() != b.Len() {
			return false
		}
		for _, k := range a.MapKeys() {
			if !b.MapIndex(k).IsValid() || !bitsEqual(a.MapIndex(k), b.MapIndex(k)) {
				return false
			}
		}
		return true
	case reflect.Struct:
		for i := 0; i < a.NumField(); i++ {
			if a.Type().Field(i).IsExported() && !bitsEqual(a.Field(i), b.Field(i)) {
				return false
			}
		}
		return true
	}
	return a.Interface() == b.Interface()
}

// TestFrameRejectsEveryTruncationAndBitFlip: every proper prefix and
// every single-bit flip of a valid frame fails before the payload
// decoder runs — as corruption, or (a flipped version field) as
// another version — never as a payload error or a wrong value.
func TestFrameRejectsEveryTruncationAndBitFlip(t *testing.T) {
	frame := sampleFrame(t)
	var res sim.Results
	for n := 0; n < len(frame); n++ {
		if err := testFormat.Decode(frame[:n], "k", &res); !rejectedEarly(err) {
			t.Fatalf("truncation to %d bytes: err = %v", n, err)
		}
	}
	for i := 0; i < len(frame)*8; i++ {
		flipped := append([]byte(nil), frame...)
		flipped[i/8] ^= 1 << (i % 8)
		if err := testFormat.Decode(flipped, "k", &res); !rejectedEarly(err) {
			t.Fatalf("bit %d flipped: err = %v", i, err)
		}
	}
}

func rejectedEarly(err error) bool {
	return err != nil && !errors.Is(err, wire.ErrPayload)
}

var sample struct {
	once    sync.Once
	results *sim.Results
	profile partition.CoreProfile
	err     error
}

// representative returns one UnitScale group run and one DynCPE
// profile, simulated once per test binary.
func representative(tb testing.TB) (*sim.Results, partition.CoreProfile) {
	tb.Helper()
	sample.once.Do(func() {
		g, err := workload.FindGroup("G2-8")
		if err != nil {
			sample.err = err
			return
		}
		sample.results, sample.err = sim.Run(sim.RunConfig{
			Scale: sim.UnitScale(), Scheme: sim.CoopPart, Group: g, Threshold: 0.05, Seed: 1})
		if sample.err == nil {
			sample.profile, sample.err = sim.ProfileBenchmark(g.Benchmarks[0], sim.UnitScale(), 2, 1)
		}
	})
	if sample.err != nil {
		tb.Fatal(sample.err)
	}
	return sample.results, sample.profile
}

func sampleFrame(tb testing.TB) []byte {
	res, _ := representative(tb)
	frame, err := testFormat.Encode("k", res)
	if err != nil {
		tb.Fatal(err)
	}
	return frame
}

// FuzzFrameDecode: arbitrary bytes never panic the frame or payload
// decoders, and a truncation or bit flip of a valid frame (chosen by
// the input) is always rejected before the payload decoder runs.
func FuzzFrameDecode(f *testing.F) {
	frame := sampleFrame(f)
	f.Add(frame, uint32(0))
	f.Add(frame[:wire.HeaderSize], uint32(100))
	f.Add([]byte("testwire"), uint32(7))
	f.Add([]byte{}, uint32(1))
	f.Fuzz(func(t *testing.T, data []byte, at uint32) {
		var res sim.Results
		testFormat.Decode(data, "k", &res)
		var snap sim.Snapshot
		wire.Unmarshal(data, &snap)
		var req service.RunRequest
		wire.Unmarshal(data, &req)
		var prof partition.CoreProfile
		wire.Unmarshal(data, &prof)

		i := int(at % uint32(len(frame)*8))
		flipped := append([]byte(nil), frame...)
		flipped[i/8] ^= 1 << (i % 8)
		if err := testFormat.Decode(flipped, "k", &res); !rejectedEarly(err) {
			t.Fatalf("bit %d flipped: err = %v", i, err)
		}
		if err := testFormat.Decode(frame[:i/8], "k", &res); !rejectedEarly(err) {
			t.Fatalf("truncation to %d bytes: err = %v", i/8, err)
		}
	})
}

func benchEncode(b *testing.B, v any) {
	frame, err := testFormat.Encode("run|scale=0123456789abcdef|seed=1|group=G2-8|scheme=CoopPart", v)
	if err != nil {
		b.Fatal(err)
	}
	b.SetBytes(int64(len(frame)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := testFormat.Encode("run|scale=0123456789abcdef|seed=1|group=G2-8|scheme=CoopPart", v); err != nil {
			b.Fatal(err)
		}
	}
}

func benchDecode[T any](b *testing.B, v any) {
	const key = "run|scale=0123456789abcdef|seed=1|group=G2-8|scheme=CoopPart"
	frame, err := testFormat.Encode(key, v)
	if err != nil {
		b.Fatal(err)
	}
	b.SetBytes(int64(len(frame)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var out T
		if err := testFormat.Decode(frame, key, &out); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFrameEncodeResults frames one UnitScale two-core group run.
func BenchmarkFrameEncodeResults(b *testing.B) {
	res, _ := representative(b)
	benchEncode(b, res)
}

// BenchmarkFrameDecodeResults verifies and decodes that frame: the
// store and service hit path.
func BenchmarkFrameDecodeResults(b *testing.B) {
	res, _ := representative(b)
	benchDecode[sim.Results](b, res)
}

// BenchmarkFrameEncodeCoreProfile frames one UnitScale DynCPE profile.
func BenchmarkFrameEncodeCoreProfile(b *testing.B) {
	_, prof := representative(b)
	benchEncode(b, prof)
}

// BenchmarkFrameDecodeCoreProfile verifies and decodes that frame.
func BenchmarkFrameDecodeCoreProfile(b *testing.B) {
	_, prof := representative(b)
	benchDecode[partition.CoreProfile](b, prof)
}
