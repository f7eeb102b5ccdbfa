package wire

import (
	"fmt"
	"hash/crc32"
	"reflect"
	"sync"
)

// A message's layout is derived once per type from its struct fields, in
// declaration order, by the rule in the package comment. Everything the
// fabric and the receivers need of a message — its size, its trace context,
// its carried error, its checksum — is read through it.

// varField is one variable-length field: a slice or string of unit-byte
// elements, a slice of records, or (unit 0) the error text.
type varField struct {
	index int
	unit  int
	rec   *layout // the element layout of a record slice
}

// layout is one struct type's wire layout.
type layout struct {
	fixed int        // fixed-width fields plus every length prefix
	vars  []varField // variable-length fields, in declaration order
	data  []int      // indexes of the []byte fields: the summed payload, in order
	sum   int        // index of the uint32 Sum field, -1 when absent
	span  int        // index of the SpanCtx field, -1 when absent
	err   int        // index of the error field, -1 when absent
}

var (
	layouts   sync.Map // reflect.Type of a message struct -> *layout
	bytesType = reflect.TypeFor[[]byte]()
	nodesType = reflect.TypeFor[[]NodeID]()
	errorType = reflect.TypeFor[error]()
	spanType  = reflect.TypeFor[SpanCtx]()
)

// message returns m's layout and the struct m points to.
func message(m Msg) (*layout, reflect.Value) {
	v := reflect.ValueOf(m).Elem()
	l, ok := layouts.Load(v.Type())
	if !ok {
		l, _ = layouts.LoadOrStore(v.Type(), layoutOf(v.Type()))
	}
	return l.(*layout), v
}

// layoutOf derives a struct type's layout. A field of any kind the rule does
// not cover (int, float, pointer, map, ...) panics, naming the type and field.
func layoutOf(t reflect.Type) *layout {
	if t.Kind() != reflect.Struct {
		panic(fmt.Sprintf("wire: %v is not a message struct", t))
	}
	l := &layout{sum: -1, span: -1, err: -1}
	for i := range t.NumField() {
		f := t.Field(i)
		v, prefix := varField{index: i, unit: 1}, 2
		switch {
		case f.Type == bytesType:
			l.data, prefix = append(l.data, i), 4
		case f.Type.Kind() == reflect.String: // 1-byte units behind a 2-byte length
		case f.Type == errorType:
			l.err, v.unit = i, 0
		case f.Type == nodesType:
			v.unit = 4
		case f.Type.Kind() == reflect.Slice && f.Type.Elem().Kind() == reflect.Struct:
			v.rec, prefix = layoutOf(f.Type.Elem()), 4
		default:
			n := fixedSize(f.Type)
			if n < 0 {
				panic(fmt.Sprintf("wire: %s.%s: a %v field has no wire layout", t.Name(), f.Name, f.Type))
			}
			l.fixed += n
			if f.Type == spanType {
				l.span = i
			} else if f.Name == "Sum" && f.Type.Kind() == reflect.Uint32 {
				l.sum = i
			}
			continue
		}
		l.vars, l.fixed = append(l.vars, v), l.fixed+prefix
	}
	return l
}

// fixedSize is the width of a fixed-width type: an integer or bool at its
// own width, a struct of such fields (BlockID, SpanCtx) at their sum, -1 for
// anything else.
func fixedSize(t reflect.Type) int {
	switch t.Kind() {
	case reflect.Bool, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64,
		reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64:
		return int(t.Size())
	case reflect.Struct:
		n := 0
		for i := range t.NumField() {
			w := fixedSize(t.Field(i).Type)
			if w < 0 {
				return -1
			}
			n += w
		}
		return n
	}
	return -1
}

// size is the modelled length of struct value v.
func (l *layout) size(v reflect.Value) int {
	n := l.fixed
	for _, f := range l.vars {
		switch fv := v.Field(f.index); {
		case f.rec != nil:
			for j := range fv.Len() {
				n += f.rec.size(fv.Index(j))
			}
		case f.unit == 0:
			if !fv.IsNil() {
				n += len(fv.Interface().(error).Error())
			}
		default:
			n += f.unit * fv.Len()
		}
	}
	return n
}

// payloadSize is a message's modelled length without the header.
func payloadSize(m Msg) int {
	l, v := message(m)
	return l.size(v)
}

// SizeOf returns the total on-wire size of a message: the header plus its
// modelled payload.
func SizeOf(m Msg) int64 { return int64(headerSize + payloadSize(m)) }

// Span returns the trace context a message carries, for the fabric to stamp
// and the receiving handler to resume; nil when it carries none.
func Span(m Msg) *SpanCtx {
	l, v := message(m)
	if l.span < 0 {
		return nil
	}
	return v.Field(l.span).Addr().Interface().(*SpanCtx)
}

// AckErr is the error outcome of an RPC: the transport error if there is
// one, else the Err the response carries, else nil (a response type without
// an Err is a success). The fabric hands the handler's error value itself
// to the caller, so a sentinel wrapped with %w on one node still satisfies
// errors.Is on the other.
func AckErr(resp Msg, err error) error {
	if err != nil || resp == nil {
		return err
	}
	l, v := message(resp)
	if l.err < 0 {
		return nil
	}
	e, _ := v.Field(l.err).Interface().(error)
	return e
}

// Verify checks a message's carried Sum against the CRC-32C of its byte
// fields in declaration order (ParixAppend: New, then Orig), and returns
// ErrChecksum on a mismatch. A message without a Sum verifies.
func Verify(m Msg) error {
	l, v := message(m)
	if l.sum < 0 {
		return nil
	}
	var crc uint32
	for _, i := range l.data {
		crc = crc32.Update(crc, crcTable, v.Field(i).Bytes())
	}
	if uint32(v.Field(l.sum).Uint()) != crc {
		return ErrChecksum
	}
	return nil
}

// Payload returns a message's first byte field, nil when it has none.
func Payload(m Msg) []byte {
	l, v := message(m)
	if len(l.data) == 0 {
		return nil
	}
	return v.Field(l.data[0]).Bytes()
}

// WithPayload returns a copy of m whose first byte field is data; every
// other field, Sum included, is m's. m must have a byte field.
func WithPayload(m Msg, data []byte) Msg {
	l, v := message(m)
	cp := reflect.New(v.Type())
	cp.Elem().Set(v)
	cp.Elem().Field(l.data[0]).SetBytes(data)
	return cp.Interface()
}
