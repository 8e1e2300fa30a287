package wire

import (
	"errors"
	"reflect"
	"testing"
)

func schemaOf(t *testing.T, v any) [8]byte {
	t.Helper()
	c, err := codecFor(reflect.TypeOf(v))
	if err != nil {
		t.Fatal(err)
	}
	return c.schema
}

// TestSchemaChangesWithFields: adding, renaming, retyping or reordering
// a payload field changes the type's schema fingerprint, so a frame
// written before the change reads as ErrSchema, never as misplaced
// bytes. Fields the codec skips, and the type's own name, do not.
func TestSchemaChangesWithFields(t *testing.T) {
	type base struct {
		A int
		B []float64
	}
	type added struct {
		A int
		B []float64
		C int
	}
	type renamed struct {
		A  int
		BB []float64
	}
	type retyped struct {
		A int
		B []float32
	}
	type reordered struct {
		B []float64
		A int
	}
	type sameShape struct {
		A int
		B []float64
		c int
		D int `json:"-"`
	}
	want := schemaOf(t, base{})
	for name, v := range map[string]any{"added": added{}, "renamed": renamed{}, "retyped": retyped{}, "reordered": reordered{}} {
		if schemaOf(t, v) == want {
			t.Errorf("%s: schema unchanged", name)
		}
	}
	if schemaOf(t, sameShape{}) != want {
		t.Error("skipped fields or the type name changed the schema")
	}

	f := NewFormat("testwire", 1)
	frame, err := f.Encode("k", base{A: 1, B: []float64{2}})
	if err != nil {
		t.Fatal(err)
	}
	var out added
	if err := f.Decode(frame, "k", &out); !errors.Is(err, ErrSchema) {
		t.Fatalf("decoding into a type with an added field: err = %v, want ErrSchema", err)
	}
}

// TestUnsupportedTypes: types with no faithful encoding are refused
// when their codec is compiled, not when a value is half written.
func TestUnsupportedTypes(t *testing.T) {
	type node struct {
		V    int
		Next *node
	}
	for _, v := range []any{
		struct{ F func() }{},
		struct{ I any }{},
		struct{ C chan int }{},
		map[float64]int{},
		[]struct{ x int }{},
		node{},
	} {
		if _, err := Marshal(v); err == nil {
			t.Errorf("%T: encoded without error", v)
		}
	}
}
