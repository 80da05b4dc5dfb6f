package object

import (
	"encoding"
	"encoding/json"
	"math"
	"math/bits"
	"reflect"
	"sync"

	"mca/internal/wire"
)

// The first byte of a serialized state.
const (
	stateAbsent = 0x00 // the object does not exist; nothing follows
	stateJSON   = 0x01 // the value's JSON follows
	stateBinary = 0x02 // the value's binary layout follows
)

// form is what T alone decides about how a Managed[T] keeps its value.
type form struct {
	// flat records that T is reference-free, so assignment copies it.
	flat bool
	// binary records that T's states are its binary layout (stateBinary)
	// rather than its JSON: T is flat, every struct field in it is
	// exported, and no type in it brings an encoding of its own. Such a
	// T round-trips through the layout exactly.
	binary bool
}

// forms caches formOf per type: reflect.Type → form.
var forms sync.Map

func formOf(t reflect.Type) form {
	if f, ok := forms.Load(t); ok {
		return f.(form)
	}
	f := walk(t)
	forms.Store(t, f)
	return f
}

// customCodecs are the interfaces through which a type brings its own
// encoding. A type implementing one keeps its JSON.
var customCodecs = []reflect.Type{
	reflect.TypeFor[json.Marshaler](), reflect.TypeFor[json.Unmarshaler](),
	reflect.TypeFor[encoding.TextMarshaler](), reflect.TypeFor[encoding.TextUnmarshaler](),
}

func ownCodec(t reflect.Type) bool {
	for _, c := range customCodecs {
		if t.Implements(c) || reflect.PointerTo(t).Implements(c) {
			return true
		}
	}
	return false
}

// walk works out t's form. t is flat when it holds no pointer, slice,
// map, interface, channel or function at any depth; strings count as
// values, being immutable.
func walk(t reflect.Type) form {
	switch t.Kind() {
	case reflect.Bool, reflect.String,
		reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64,
		reflect.Uint, reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64, reflect.Uintptr,
		reflect.Float32, reflect.Float64, reflect.Complex64, reflect.Complex128:
		return form{flat: true, binary: !ownCodec(t)}
	case reflect.Array:
		f := walk(t.Elem())
		f.binary = f.binary && !ownCodec(t)
		return f
	case reflect.Struct:
		f := form{flat: true, binary: !ownCodec(t)}
		for i := range t.NumField() {
			field := t.Field(i)
			ff := walk(field.Type)
			f.flat = f.flat && ff.flat
			f.binary = f.binary && ff.binary && field.IsExported()
		}
		return f
	default:
		return form{}
	}
}

// appendBinary appends the binary layout of v, whose type's form is
// binary: its leaves depth first — struct fields in declaration order,
// array elements in index order — each in wire's vocabulary. A bool is
// one byte, 0 or 1; a signed integer is the uvarint of its zigzag form;
// an unsigned one its uvarint; a float or complex number the big-endian
// IEEE bits of each part, so NaNs and infinities keep every bit; a
// string its length-prefixed bytes. v must be addressable.
func appendBinary(b []byte, v reflect.Value) []byte {
	switch v.Kind() {
	case reflect.Bool:
		if v.Bool() {
			return append(b, 1)
		}
		return append(b, 0)
	case reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64:
		x := v.Int()
		return wire.AppendUvarint(b, uint64(x<<1)^uint64(x>>63))
	case reflect.Uint, reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64, reflect.Uintptr:
		return wire.AppendUvarint(b, v.Uint())
	case reflect.Float32:
		return wire.AppendUint32(b, math.Float32bits(*float32At(v)))
	case reflect.Float64:
		return wire.AppendUint64(b, math.Float64bits(v.Float()))
	case reflect.Complex64:
		c := *complex64At(v)
		return wire.AppendUint32(wire.AppendUint32(b, math.Float32bits(real(c))), math.Float32bits(imag(c)))
	case reflect.Complex128:
		c := v.Complex()
		return wire.AppendUint64(wire.AppendUint64(b, math.Float64bits(real(c))), math.Float64bits(imag(c)))
	case reflect.String:
		return wire.AppendString(b, v.String())
	case reflect.Array:
		for i := range v.Len() {
			b = appendBinary(b, v.Index(i))
		}
	case reflect.Struct:
		for i := range v.NumField() {
			b = appendBinary(b, v.Field(i))
		}
	}
	return b
}

// readBinary sets v, addressable, from the layout appendBinary writes,
// and latches r's error on anything it cannot have written: a bool byte
// other than 0 or 1, a varint longer than its value needs, or an integer
// v's kind cannot hold. So a state decodes only from the one byte string
// that captures it.
func readBinary(r *wire.Reader, v reflect.Value) {
	switch v.Kind() {
	case reflect.Bool:
		switch r.Byte() {
		case 0:
		case 1:
			v.SetBool(true)
		default:
			r.Fail()
		}
	case reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64:
		u := minimalUvarint(r)
		if x := int64(u>>1) ^ -int64(u&1); v.OverflowInt(x) {
			r.Fail()
		} else {
			v.SetInt(x)
		}
	case reflect.Uint, reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64, reflect.Uintptr:
		if x := minimalUvarint(r); v.OverflowUint(x) {
			r.Fail()
		} else {
			v.SetUint(x)
		}
	case reflect.Float32:
		*float32At(v) = math.Float32frombits(r.Uint32())
	case reflect.Float64:
		v.SetFloat(math.Float64frombits(r.Uint64()))
	case reflect.Complex64:
		re := math.Float32frombits(r.Uint32())
		*complex64At(v) = complex(re, math.Float32frombits(r.Uint32()))
	case reflect.Complex128:
		re := math.Float64frombits(r.Uint64())
		v.SetComplex(complex(re, math.Float64frombits(r.Uint64())))
	case reflect.String:
		before := r.Len()
		s := r.Bytes()
		if before-r.Len() != varintLen(uint64(len(s)))+len(s) {
			r.Fail()
		}
		v.SetString(string(s))
	case reflect.Array:
		for i := range v.Len() {
			readBinary(r, v.Index(i))
		}
	case reflect.Struct:
		for i := range v.NumField() {
			readBinary(r, v.Field(i))
		}
	}
}

// minimalUvarint reads a varint and refuses one longer than its value
// needs.
func minimalUvarint(r *wire.Reader) uint64 {
	before := r.Len()
	x := r.Uvarint()
	if before-r.Len() != varintLen(x) {
		r.Fail()
	}
	return x
}

// varintLen is the length of x's shortest varint, the one capture writes.
func varintLen(x uint64) int { return max(1, (bits.Len64(x)+6)/7) }

// float32At and complex64At reach a 32-bit float in place: Value.Float
// and SetFloat pass it through a float64, and that conversion quiets a
// signalling NaN.
func float32At(v reflect.Value) *float32 {
	return v.Addr().Convert(float32Ptr).Interface().(*float32)
}

func complex64At(v reflect.Value) *complex64 {
	return v.Addr().Convert(complex64Ptr).Interface().(*complex64)
}

var (
	float32Ptr   = reflect.TypeFor[*float32]()
	complex64Ptr = reflect.TypeFor[*complex64]()
)
