package wire

import (
	"cmp"
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"math"
	"reflect"
	"slices"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
)

// codec is the compiled encoder and decoder of one Go type. Codecs are
// built once per reflect.Type and cached; a struct's codec runs its
// fields' codecs in declaration order, so encoding is a straight walk
// with no field names and no per-value lookups.
type codec struct {
	enc func(b []byte, v reflect.Value) []byte
	// dec overwrites v (settable) from d; failures are sticky in d.err
	// and read as zero values, so a decoder never panics on any input.
	dec func(d *decoder, v reflect.Value)
	// desc is the canonical description the schema fingerprint hashes:
	// kinds, lengths and field names, never package paths.
	desc string
	// min is the fewest bytes one encoded value can take. Length
	// prefixes are checked against it before anything is allocated.
	min int
	// schema is the first 8 bytes of SHA-256(desc).
	schema [8]byte
	// hint is the last encoded payload size of this type, used to size
	// the next frame's buffer.
	hint atomic.Int64
}

var (
	compileMu sync.Mutex
	codecs    sync.Map // reflect.Type -> *codec
)

// codecFor returns t's codec, compiling it (and every type it reaches)
// on first use.
func codecFor(t reflect.Type) (*codec, error) {
	if c, ok := codecs.Load(t); ok {
		return c.(*codec), nil
	}
	compileMu.Lock()
	defer compileMu.Unlock()
	if c, ok := codecs.Load(t); ok {
		return c.(*codec), nil
	}
	b := &builder{building: make(map[reflect.Type]*codec)}
	c, err := b.compile(t)
	if err != nil {
		return nil, err
	}
	for typ, bc := range b.building {
		bc.schema = fingerprint(bc.desc)
		codecs.Store(typ, bc)
	}
	return c, nil
}

func fingerprint(desc string) [8]byte {
	sum := sha256.Sum256([]byte(desc))
	return [8]byte(sum[:8])
}

type builder struct {
	// building holds every codec of this compilation, including those
	// still being filled in.
	building map[reflect.Type]*codec
}

func (b *builder) compile(t reflect.Type) (*codec, error) {
	if c, ok := codecs.Load(t); ok {
		return c.(*codec), nil
	}
	if c, ok := b.building[t]; ok {
		if c.desc == "" {
			// t is still being filled in: it contains itself. No framed
			// payload does, so refuse rather than recurse forever.
			return nil, fmt.Errorf("wire: unsupported recursive type %s", t)
		}
		return c, nil
	}
	c := &codec{}
	b.building[t] = c
	if err := b.fill(c, t); err != nil {
		return nil, err
	}
	return c, nil
}

func (b *builder) fill(c *codec, t reflect.Type) error {
	k := t.Kind()
	switch k {
	case reflect.Bool:
		c.desc, c.min = "bool", 1
		c.enc = func(b []byte, v reflect.Value) []byte {
			if v.Bool() {
				return append(b, 1)
			}
			return append(b, 0)
		}
		c.dec = func(d *decoder, v reflect.Value) {
			switch d.u8() {
			case 0:
				v.SetBool(false)
			case 1:
				v.SetBool(true)
			default:
				d.fail("bool out of range")
			}
		}
	case reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64:
		c.desc, c.min = k.String(), 1
		c.enc = func(b []byte, v reflect.Value) []byte { return binary.AppendVarint(b, v.Int()) }
		c.dec = func(d *decoder, v reflect.Value) {
			x := d.varint()
			if v.OverflowInt(x) {
				d.fail("integer overflows " + k.String())
				return
			}
			v.SetInt(x)
		}
	case reflect.Uint, reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64, reflect.Uintptr:
		c.desc, c.min = k.String(), 1
		c.enc = func(b []byte, v reflect.Value) []byte { return binary.AppendUvarint(b, v.Uint()) }
		c.dec = func(d *decoder, v reflect.Value) {
			x := d.uvarint()
			if v.OverflowUint(x) {
				d.fail("integer overflows " + k.String())
				return
			}
			v.SetUint(x)
		}
	case reflect.Float32:
		c.desc, c.min = "float32", 4
		c.enc = func(b []byte, v reflect.Value) []byte {
			return binary.LittleEndian.AppendUint32(b, math.Float32bits(float32(v.Float())))
		}
		c.dec = func(d *decoder, v reflect.Value) {
			v.SetFloat(float64(math.Float32frombits(binary.LittleEndian.Uint32(d.fixed(4)))))
		}
	case reflect.Float64:
		c.desc, c.min = "float64", 8
		c.enc = func(b []byte, v reflect.Value) []byte {
			return binary.LittleEndian.AppendUint64(b, math.Float64bits(v.Float()))
		}
		c.dec = func(d *decoder, v reflect.Value) {
			v.SetFloat(math.Float64frombits(binary.LittleEndian.Uint64(d.fixed(8))))
		}
	case reflect.String:
		c.desc, c.min = "string", 1
		c.enc = func(b []byte, v reflect.Value) []byte {
			s := v.String()
			b = binary.AppendUvarint(b, uint64(len(s)))
			return append(b, s...)
		}
		c.dec = func(d *decoder, v reflect.Value) {
			n := d.length(1)
			v.SetString(string(d.fixed(n)))
		}
	case reflect.Pointer:
		elem, err := b.compile(t.Elem())
		if err != nil {
			return err
		}
		c.desc, c.min = "*"+elem.desc, 1
		c.enc = func(b []byte, v reflect.Value) []byte {
			if v.IsNil() {
				return append(b, 0)
			}
			return elem.enc(append(b, 1), v.Elem())
		}
		c.dec = func(d *decoder, v reflect.Value) {
			switch d.u8() {
			case 0:
				v.SetZero()
			case 1:
				p := reflect.New(t.Elem())
				elem.dec(d, p.Elem())
				v.Set(p)
			default:
				d.fail("pointer tag out of range")
			}
		}
	case reflect.Slice:
		return b.fillSlice(c, t)
	case reflect.Array:
		elem, err := b.compile(t.Elem())
		if err != nil {
			return err
		}
		n := t.Len()
		c.desc, c.min = "["+strconv.Itoa(n)+"]"+elem.desc, n*elem.min
		c.enc = func(b []byte, v reflect.Value) []byte {
			for i := 0; i < n; i++ {
				b = elem.enc(b, v.Index(i))
			}
			return b
		}
		c.dec = func(d *decoder, v reflect.Value) {
			for i := 0; i < n && d.err == nil; i++ {
				elem.dec(d, v.Index(i))
			}
		}
	case reflect.Map:
		return b.fillMap(c, t)
	case reflect.Struct:
		return b.fillStruct(c, t)
	default:
		return fmt.Errorf("wire: unsupported type %s", t)
	}
	return nil
}

// Slices and maps carry uvarint(len+1) so nil (0) stays distinct from
// empty (1).
func (b *builder) fillSlice(c *codec, t reflect.Type) error {
	if t.Elem().Kind() == reflect.Uint8 {
		c.desc, c.min = "[]uint8", 1
		c.enc = func(b []byte, v reflect.Value) []byte {
			if v.IsNil() {
				return append(b, 0)
			}
			b = binary.AppendUvarint(b, uint64(v.Len())+1)
			return append(b, v.Bytes()...)
		}
		c.dec = func(d *decoder, v reflect.Value) {
			n, ok := d.nilOrLength(1)
			if !ok {
				v.SetZero()
				return
			}
			s := reflect.MakeSlice(t, n, n)
			copy(s.Bytes(), d.fixed(n))
			v.Set(s)
		}
		return nil
	}
	elem, err := b.compile(t.Elem())
	if err != nil {
		return err
	}
	if elem.min == 0 {
		return fmt.Errorf("wire: unsupported type %s (elements encode to no bytes)", t)
	}
	c.desc, c.min = "[]"+elem.desc, 1
	c.enc = func(b []byte, v reflect.Value) []byte {
		if v.IsNil() {
			return append(b, 0)
		}
		n := v.Len()
		b = binary.AppendUvarint(b, uint64(n)+1)
		for i := 0; i < n; i++ {
			b = elem.enc(b, v.Index(i))
		}
		return b
	}
	c.dec = func(d *decoder, v reflect.Value) {
		n, ok := d.nilOrLength(elem.min)
		if !ok {
			v.SetZero()
			return
		}
		s := reflect.MakeSlice(t, n, n)
		for i := 0; i < n && d.err == nil; i++ {
			elem.dec(d, s.Index(i))
		}
		v.Set(s)
	}
	return nil
}

// fillMap encodes entries in ascending key order, so equal maps encode
// to equal bytes. Keys are restricted to the kinds encoding/json
// accepts without a TextMarshaler: strings and integers.
func (b *builder) fillMap(c *codec, t reflect.Type) error {
	kt := t.Key()
	var less func(a, b reflect.Value) int
	switch kt.Kind() {
	case reflect.String:
		less = func(a, b reflect.Value) int { return strings.Compare(a.String(), b.String()) }
	case reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64:
		less = func(a, b reflect.Value) int { return cmp.Compare(a.Int(), b.Int()) }
	case reflect.Uint, reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64, reflect.Uintptr:
		less = func(a, b reflect.Value) int { return cmp.Compare(a.Uint(), b.Uint()) }
	default:
		return fmt.Errorf("wire: unsupported map key type %s", kt)
	}
	key, err := b.compile(kt)
	if err != nil {
		return err
	}
	val, err := b.compile(t.Elem())
	if err != nil {
		return err
	}
	c.desc, c.min = "map["+key.desc+"]"+val.desc, 1
	c.enc = func(b []byte, v reflect.Value) []byte {
		if v.IsNil() {
			return append(b, 0)
		}
		keys := v.MapKeys()
		slices.SortFunc(keys, less)
		b = binary.AppendUvarint(b, uint64(len(keys))+1)
		for _, k := range keys {
			b = key.enc(b, k)
			b = val.enc(b, v.MapIndex(k))
		}
		return b
	}
	c.dec = func(d *decoder, v reflect.Value) {
		n, ok := d.nilOrLength(key.min + val.min)
		if !ok {
			v.SetZero()
			return
		}
		m := reflect.MakeMapWithSize(t, n)
		for i := 0; i < n && d.err == nil; i++ {
			k := reflect.New(kt).Elem()
			key.dec(d, k)
			e := reflect.New(t.Elem()).Elem()
			val.dec(d, e)
			m.SetMapIndex(k, e)
		}
		v.Set(m)
	}
	return nil
}

// fillStruct encodes the fields encoding/json would: exported fields
// and embedded structs, minus those tagged `json:"-"`. An omitempty
// slice or map that is empty encodes as nil, because that is what a
// JSON round trip hands back.
func (b *builder) fillStruct(c *codec, t reflect.Type) error {
	type field struct {
		index     int
		codec     *codec
		omitEmpty bool
	}
	var fields []field
	var desc strings.Builder
	desc.WriteString("struct{")
	for i := 0; i < t.NumField(); i++ {
		f := t.Field(i)
		if !f.IsExported() && !(f.Anonymous && f.Type.Kind() == reflect.Struct) {
			continue
		}
		tag := f.Tag.Get("json")
		if tag == "-" {
			continue
		}
		fc, err := b.compile(f.Type)
		if err != nil {
			return fmt.Errorf("%w (field %s.%s)", err, t, f.Name)
		}
		_, opts, _ := strings.Cut(tag, ",")
		k := f.Type.Kind()
		omit := (k == reflect.Slice || k == reflect.Map) && slices.Contains(strings.Split(opts, ","), "omitempty")
		fields = append(fields, field{index: i, codec: fc, omitEmpty: omit})
		c.min += fc.min
		desc.WriteString(f.Name)
		desc.WriteByte(' ')
		desc.WriteString(fc.desc)
		desc.WriteByte(';')
	}
	desc.WriteByte('}')
	c.desc = desc.String()
	c.enc = func(b []byte, v reflect.Value) []byte {
		for _, f := range fields {
			fv := v.Field(f.index)
			if f.omitEmpty && fv.Len() == 0 {
				b = append(b, 0)
				continue
			}
			b = f.codec.enc(b, fv)
		}
		return b
	}
	c.dec = func(d *decoder, v reflect.Value) {
		for _, f := range fields {
			if d.err != nil {
				return
			}
			f.codec.dec(d, v.Field(f.index))
		}
	}
	return nil
}

// decoder reads one payload. The first failure is kept in err; every
// later read returns zero values, so codecs need not check after each
// primitive.
type decoder struct {
	data []byte
	off  int
	err  error
}

func (d *decoder) fail(why string) {
	if d.err == nil {
		d.err = fmt.Errorf("%w: %s at byte %d", ErrPayload, why, d.off)
	}
}

func (d *decoder) u8() byte {
	if d.err != nil || d.off >= len(d.data) {
		d.fail("unexpected end")
		return 0
	}
	d.off++
	return d.data[d.off-1]
}

func (d *decoder) fixed(n int) []byte {
	if d.err != nil || len(d.data)-d.off < n {
		d.fail("unexpected end")
		return make([]byte, n)
	}
	d.off += n
	return d.data[d.off-n : d.off]
}

func (d *decoder) uvarint() uint64 {
	if d.err != nil {
		return 0
	}
	x, n := binary.Uvarint(d.data[d.off:])
	if n <= 0 {
		d.fail("bad varint")
		return 0
	}
	d.off += n
	return x
}

func (d *decoder) varint() int64 {
	if d.err != nil {
		return 0
	}
	x, n := binary.Varint(d.data[d.off:])
	if n <= 0 {
		d.fail("bad varint")
		return 0
	}
	d.off += n
	return x
}

// length reads a count of elements that take at least min bytes each
// and rejects counts the remaining bytes cannot hold, so a corrupt
// prefix can never make the decoder allocate more than the payload
// size.
func (d *decoder) length(min int) int {
	n := d.uvarint()
	if d.err == nil && n > uint64(len(d.data)-d.off)/uint64(max(min, 1)) {
		d.fail("length exceeds payload")
		return 0
	}
	return int(n)
}

// nilOrLength reads a slice or map prefix: ok=false means nil.
func (d *decoder) nilOrLength(min int) (n int, ok bool) {
	n1 := d.uvarint()
	if d.err != nil || n1 == 0 {
		return 0, false
	}
	n1--
	if n1 > uint64(len(d.data)-d.off)/uint64(max(min, 1)) {
		d.fail("length exceeds payload")
		return 0, false
	}
	return int(n1), true
}
