// Package wire is the one checksummed binary frame every payload the
// platform persists or transmits travels in: store entries (results,
// profiles, checkpoint snapshots) and both bodies of expd's /v1/run
// (DESIGN.md §12, §13).
//
// A frame is a fixed 64-byte header, the key, then the payload:
//
//	offset  size  field
//	     0     8  magic: names the frame family (store entry, service body)
//	     8    32  SHA-256 of every byte from offset 40 to the end
//	    40     4  format version, little endian
//	    44     8  schema fingerprint of the payload's Go type
//	    52     4  key length K, little endian
//	    56     8  payload length N, little endian
//	    64     K  key
//	  64+K     N  payload
//
// The checksum covers the version, the schema, both lengths, the key
// and the payload, so any truncation or bit flip past the magic is
// rejected before the payload decoder runs, while a well-formed frame
// of another version, type or key is told apart from corruption. The
// magic and version sit at fixed offsets in every version, so a reader
// recognises a frame it must not parse.
//
// The payload is written by a codec compiled once per Go type by
// reflection: fields in declaration order, integers as varints, floats
// as raw IEEE bits, strings and slices length-prefixed with nil kept
// distinct from empty, maps in ascending key order. It encodes the
// fields encoding/json would (exported, not tagged `json:"-"`), so a
// decoded value equals what a JSON round trip of the same value
// yields — except that NaN and ±Inf survive, where JSON refuses them.
// The schema fingerprint hashes the type's shape (kinds, lengths and
// field names), so a reader whose type gained, lost, renamed or
// retyped a field reads ErrSchema instead of misplaced bytes.
package wire

import (
	"crypto/sha256"
	"encoding/binary"
	"errors"
	"fmt"
	"reflect"
)

// HeaderSize is the fixed part of a frame, before the key.
const HeaderSize = 64

const (
	offSum     = 8
	offVersion = 40
	offSchema  = 44
	offKeyLen  = 52
	offPayLen  = 56
)

// Frame errors. Every failure of a frame or payload that Decode and
// Open report wraps exactly one of them; misuse (a non-pointer target,
// an unsupported type) is a plain error.
var (
	// ErrCorrupt: bad magic, torn or padded frame, checksum mismatch.
	ErrCorrupt = errors.New("wire: corrupt frame")
	// ErrVersion: a well-formed frame of another format version.
	ErrVersion = errors.New("wire: format version mismatch")
	// ErrSchema: a checksummed frame whose payload type differs from
	// the reader's.
	ErrSchema = errors.New("wire: payload schema mismatch")
	// ErrKey: a checksummed frame holding another key.
	ErrKey = errors.New("wire: key mismatch")
	// ErrPayload: a checksummed frame whose payload does not decode.
	ErrPayload = errors.New("wire: payload does not decode")
)

// Format is one frame family: its magic and its version.
type Format struct {
	magic   [8]byte
	version uint32
}

// NewFormat returns the frame family named by an 8-byte magic at the
// given version. Bumping the version makes every older frame read as
// ErrVersion.
func NewFormat(magic string, version uint32) Format {
	if len(magic) != 8 {
		panic("wire: magic must be 8 bytes: " + magic)
	}
	return Format{magic: [8]byte([]byte(magic)), version: version}
}

// Encode frames v under key. v may be a pointer; the frame describes
// the value it points to.
func (f Format) Encode(key string, v any) ([]byte, error) {
	rv, c, err := source(v)
	if err != nil {
		return nil, err
	}
	b := make([]byte, HeaderSize, HeaderSize+len(key)+int(c.hint.Load()))
	b = append(b, key...)
	b = c.enc(b, rv)
	n := len(b) - HeaderSize - len(key)
	c.hint.Store(int64(n))
	copy(b, f.magic[:])
	binary.LittleEndian.PutUint32(b[offVersion:], f.version)
	copy(b[offSchema:], c.schema[:])
	binary.LittleEndian.PutUint32(b[offKeyLen:], uint32(len(key)))
	binary.LittleEndian.PutUint64(b[offPayLen:], uint64(n))
	sum := sha256.Sum256(b[offVersion:])
	copy(b[offSum:], sum[:])
	return b, nil
}

// Decode verifies data as a frame of this format holding key and
// decodes its payload into v, which must be a non-nil pointer.
func (f Format) Decode(data []byte, key string, v any) error {
	fr, err := f.Open(data)
	if err != nil {
		return err
	}
	if string(fr.key) != key {
		return fmt.Errorf("%w: frame holds %q, want %q", ErrKey, fr.key, key)
	}
	return fr.Decode(v)
}

// Frame is a frame whose magic, version, lengths and checksum hold.
type Frame struct {
	key     []byte
	schema  [8]byte
	payload []byte
}

// Open checks data's magic, version, lengths and checksum, in that
// order, without decoding the payload.
func (f Format) Open(data []byte) (Frame, error) {
	if len(data) < HeaderSize {
		return Frame{}, fmt.Errorf("%w: %d bytes, shorter than the header", ErrCorrupt, len(data))
	}
	if [8]byte(data[:8]) != f.magic {
		return Frame{}, fmt.Errorf("%w: bad magic %q", ErrCorrupt, data[:8])
	}
	if v := binary.LittleEndian.Uint32(data[offVersion:]); v != f.version {
		return Frame{}, fmt.Errorf("%w: version %d, want %d", ErrVersion, v, f.version)
	}
	k := uint64(binary.LittleEndian.Uint32(data[offKeyLen:]))
	n := binary.LittleEndian.Uint64(data[offPayLen:])
	if rest := uint64(len(data) - HeaderSize); k > rest || n != rest-k {
		return Frame{}, fmt.Errorf("%w: %d bytes after the header, header says key %d + payload %d (torn)",
			ErrCorrupt, rest, k, n)
	}
	if sha256.Sum256(data[offVersion:]) != [32]byte(data[offSum:offVersion]) {
		return Frame{}, fmt.Errorf("%w: checksum mismatch", ErrCorrupt)
	}
	return Frame{
		key:     data[HeaderSize : HeaderSize+k],
		schema:  [8]byte(data[offSchema:offKeyLen]),
		payload: data[HeaderSize+k:],
	}, nil
}

// Key returns the key the frame was written under.
func (fr Frame) Key() string { return string(fr.key) }

// Decode checks the frame's schema against v's type and decodes the
// payload into v, which must be a non-nil pointer.
func (fr Frame) Decode(v any) error {
	rv, c, err := sink(v)
	if err != nil {
		return err
	}
	if fr.schema != c.schema {
		return fmt.Errorf("%w: frame schema %x, %s has %x", ErrSchema, fr.schema, rv.Type(), c.schema)
	}
	return decodePayload(fr.payload, rv, c)
}

// Marshal encodes v's payload alone, without a frame: the bytes a
// frame of v carries after its key.
func Marshal(v any) ([]byte, error) {
	rv, c, err := source(v)
	if err != nil {
		return nil, err
	}
	return c.enc(nil, rv), nil
}

// Unmarshal decodes a payload produced by Marshal into v, which must
// be a non-nil pointer to the same type.
func Unmarshal(data []byte, v any) error {
	rv, c, err := sink(v)
	if err != nil {
		return err
	}
	return decodePayload(data, rv, c)
}

func decodePayload(data []byte, rv reflect.Value, c *codec) error {
	d := decoder{data: data}
	c.dec(&d, rv)
	if d.err == nil && d.off != len(data) {
		d.fail("trailing bytes")
	}
	return d.err
}

// source dereferences v down to the value a frame describes.
func source(v any) (reflect.Value, *codec, error) {
	rv := reflect.ValueOf(v)
	for rv.Kind() == reflect.Pointer {
		if rv.IsNil() {
			return reflect.Value{}, nil, errors.New("wire: encoding a nil pointer")
		}
		rv = rv.Elem()
	}
	if !rv.IsValid() {
		return reflect.Value{}, nil, errors.New("wire: encoding a nil value")
	}
	c, err := codecFor(rv.Type())
	return rv, c, err
}

// sink dereferences the pointer v down to the settable value a frame
// decodes into, allocating nil intermediate pointers as encoding/json
// does.
func sink(v any) (reflect.Value, *codec, error) {
	rv := reflect.ValueOf(v)
	if rv.Kind() != reflect.Pointer || rv.IsNil() {
		return reflect.Value{}, nil, fmt.Errorf("wire: decoding into non-pointer or nil %T", v)
	}
	rv = rv.Elem()
	for rv.Kind() == reflect.Pointer {
		if rv.IsNil() {
			rv.Set(reflect.New(rv.Type().Elem()))
		}
		rv = rv.Elem()
	}
	c, err := codecFor(rv.Type())
	return rv, c, err
}
