package wire

import (
	"errors"
	"fmt"
	"reflect"
	"testing"
)

// Compile-time check: the full set of payload-bearing messages on the traced
// paths implements Spanned.
var _ = []Spanned{
	(*AdmitOp)(nil), (*Update)(nil), (*ReadBlock)(nil), (*PutBlock)(nil),
	(*DeltaAppend)(nil), (*ParixAppend)(nil), (*ParityDelta)(nil),
	(*LogReplica)(nil), (*RecoverBlock)(nil), (*DegradedUpdate)(nil),
	(*DegradedRead)(nil), (*JournalReplica)(nil), (*ReplayUpdate)(nil),
}

// sizeRows has one message per type with its modelled payload size.
// SizeOf is what the fabric charges to simulated NIC time, so each want is
// a literal: a PayloadSize edit moves sim-time results and must fail
// TestSizeOfIncludesHeader first. Fixed-width fields are left zero (their
// values never change a size, which FuzzUnmarshalRoundTrip checks); every
// variable-length field is filled, with distinct lengths, so each term of a
// PayloadSize is covered. The comment after a row spells out its sum; 17 is
// the SpanCtx.
var sizeRows = func() []sizeRow {
	b := func(n int) []byte { return make([]byte, n) }
	e := errors.New
	return []sizeRow{
		{&Ack{Err: e("boom")}, 6},                                   // 2+4
		{&CreateFile{Name: "vol0"}, 10},                             // 2+4+4
		{&CreateResp{Err: e("exists")}, 16},                         // 8+2+6
		{&Lookup{}, 12},                                             // 8+4
		{&LookupResp{OSDs: make([]NodeID, 3), Err: e("stale")}, 33}, // 2+4*3+4+8+2+5
		{&PutBlock{Data: b(3)}, 42},                                 // 14+4+3+4+17
		{&ReadBlock{}, 52},                                          // 14+13+8+17
		{&ReadResp{Data: b(2), Err: e("eio")}, 15},                  // 4+2+2+3+4
		{&Update{Data: b(2)}, 57},                                   // 14+8+4+2+8+4+17
		{&DeltaAppend{Data: b(1)}, 52},                              // 14+2+8+4+1+2+4+17
		{&ParixAppend{New: b(2), Orig: b(3)}, 58},                   // 14+2+8+4+2+4+3+4+17
		{&ParityDelta{Data: b(4)}, 51},                              // 14+8+4+4+4+17
		{&LogReplica{Data: b(1)}, 62},                               // 4+2+8+14+8+4+1+4+17
		{&UnitDone{}, 14},                                           // 4+2+8
		{&Drain{}, 0},
		{&Heartbeat{}, 8},     // 4+4
		{&RecoverBlock{}, 32}, // 14+1+17
		{&ReplicaFetch{}, 4},  // 4
		{&ReplicaResp{Items: []ReplicaItem{{Data: b(2)}, {Data: b(1)}}}, 59}, // 4+(14+8+4+2)+(14+8+4+1)
		{&DegradedUpdate{Data: b(2)}, 53},                                    // 4+14+8+4+2+4+17
		{&DegradedRead{}, 47},                                                // 4+14+8+4+17
		{&JournalReplica{Data: b(1)}, 64},                                    // 4+4+8+14+8+4+1+4+17
		{&JournalFetch{}, 16},                                                // 4+4+8
		{&ReplayUpdate{Data: b(3)}, 50},                                      // 14+8+4+3+4+17
		{&Settle{}, 4},                                                       // 4
		{&PGLookup{}, 4},                                                     // 4
		{&EpochUpdate{}, 9},                                                  // 1+4+4
		{&EpochResp{Err: e("no transition")}, 23},                            // 8+2+13
		{&MigrateBlock{}, 20},                                                // 14+4+2
		{&PGCutover{}, 12},                                                   // 4+8
		{&MigrateLog{}, 14},                                                  // 14
		{&ReplicaRetire{}, 18},                                               // 4+14
		{&PGAbort{}, 12},                                                     // 4+8
		{&TransitionStatus{}, 0},
		{&TransitionStatusResp{PGs: make([]PGStatus, 2), Beats: make([]BeatStatus, 3), Err: e("busy")}, 77}, // 1+8+8+4+5*2+4+12*3+2+4
		{&JournalAck{Err: e("zone full")}, 19},                                                       // 8+2+9
		{&JournalFetchResp{Items: []JournalItem{{Data: b(2)}, {Data: b(1)}}, Err: e("partial")}, 84}, // 4+(8+14+8+4+2)+(8+14+8+4+1)+2+7
		{&AdmitOp{}, 17}, // 17
	}
}()

type sizeRow struct {
	m    Msg
	want int // PayloadSize; SizeOf adds the 40-byte header
}

// TestSizeOfIncludesHeader checks every sizeRows literal, and that every
// type has a row and a name.
func TestSizeOfIncludesHeader(t *testing.T) {
	rows := make(map[Type]bool)
	for _, c := range sizeRows {
		typ := c.m.Type()
		rows[typ] = true
		if got := c.m.PayloadSize(); got != c.want {
			t.Errorf("%v: PayloadSize %d, want %d", typ, got, c.want)
		}
		if got := SizeOf(c.m); got != int64(40+c.want) {
			t.Errorf("%v: SizeOf %d, want %d", typ, got, 40+c.want)
		}
	}
	for typ := TAck; typ <= TAdmitOp; typ++ {
		if !rows[typ] {
			t.Errorf("%v has no size row", typ)
		}
		if _, ok := typeNames[typ]; !ok {
			t.Errorf("Type(%d) has no typeNames entry", uint8(typ))
		}
	}
	if len(typeNames) != int(TAdmitOp) {
		t.Errorf("typeNames has %d entries for %d types: a type past TAdmitOp needs a row here", len(typeNames), TAdmitOp)
	}
}

// FuzzUnmarshalRoundTrip decodes an arbitrary (frame type, payload) pair
// into a message: the type byte picks the type's sizeRows message, every
// byte-slice and string field takes the payload, every error field an
// error with the payload as its text, and every fixed-width field a value
// drawn from it. The message must report the frame
// type back, and its modelled size must move by exactly the variable bytes
// it gained: no fixed-width value (a Sum, an epoch, a SpanCtx traced or
// not) changes a size. A type byte with no row must have no name either.
// The seeds give every type an empty and a non-empty payload.
func FuzzUnmarshalRoundTrip(f *testing.F) {
	rows := make(map[Type]Msg, len(sizeRows))
	for _, r := range sizeRows {
		rows[r.m.Type()] = r.m
		f.Add(byte(r.m.Type()), []byte(nil))
		f.Add(byte(r.m.Type()), []byte("two-stage update"))
	}
	f.Add(byte(0), []byte{})
	f.Fuzz(func(t *testing.T, typ byte, payload []byte) {
		proto, ok := rows[Type(typ)]
		if !ok {
			if got, want := Type(typ).String(), fmt.Sprintf("Type(%d)", typ); got != want {
				t.Fatalf("type byte %d has no size row but is named %q", typ, got)
			}
			return
		}
		m, grew := decode(t, proto, payload)
		if m.Type() != Type(typ) {
			t.Fatalf("decoded %v from frame type %d", m.Type(), typ)
		}
		if got, want := m.PayloadSize(), proto.PayloadSize()+grew; got != want {
			t.Fatalf("%v with %d-byte payload: PayloadSize %d, want %d", m.Type(), len(payload), got, want)
		}
		if got := SizeOf(m); got != int64(headerSize+m.PayloadSize()) {
			t.Fatalf("%v: SizeOf %d, want %d", m.Type(), got, headerSize+m.PayloadSize())
		}
	})
}

// decode returns a copy of proto with every field reachable through
// structs and slice elements overwritten: byte slices and strings with
// payload, errors with an error whose text is payload, integers and bools
// with values drawn from it. Other slices keep their length. grew is the
// number of variable bytes the copy gained.
func decode(t *testing.T, proto Msg, payload []byte) (m Msg, grew int) {
	v := reflect.New(reflect.TypeOf(proto).Elem())
	v.Elem().Set(reflect.ValueOf(proto).Elem())
	i := 0
	next := func() uint64 {
		i++
		if len(payload) == 0 {
			return uint64(i)
		}
		return uint64(payload[i%len(payload)])<<(i%57) | uint64(i)
	}
	var fill func(f reflect.Value)
	fill = func(f reflect.Value) {
		switch f.Kind() {
		case reflect.Struct:
			for j := range f.NumField() {
				fill(f.Field(j))
			}
		case reflect.Slice:
			if f.Type().Elem().Kind() == reflect.Uint8 {
				grew += len(payload) - f.Len()
				f.SetBytes(payload)
				return
			}
			c := reflect.MakeSlice(f.Type(), f.Len(), f.Len())
			reflect.Copy(c, f)
			f.Set(c)
			for j := range f.Len() {
				fill(f.Index(j))
			}
		case reflect.String:
			grew += len(payload) - f.Len()
			f.SetString(string(payload))
		case reflect.Interface:
			if f.Type() != errorType {
				t.Fatalf("%v: interface field %v has no modelled size", proto.Type(), f.Type())
			}
			if !f.IsNil() {
				grew -= len(f.Interface().(error).Error())
			}
			grew += len(payload)
			f.Set(reflect.ValueOf(errors.New(string(payload))))
		case reflect.Bool:
			f.SetBool(next()%2 == 1)
		case reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64:
			f.SetInt(int64(next()))
		case reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64:
			f.SetUint(next())
		default:
			t.Fatalf("%v: field of kind %v has no modelled size", proto.Type(), f.Kind())
		}
	}
	fill(v.Elem())
	return v.Interface().(Msg), grew
}

func TestChecksum(t *testing.T) {
	if Checksum(nil) != 0 {
		t.Fatal("Checksum(nil) != 0: empty payloads must verify against zero Sum")
	}
	data := []byte("two-stage update")
	sum := Checksum(data)
	if err := VerifySum(data, sum); err != nil {
		t.Fatalf("VerifySum on intact data: %v", err)
	}
	if err := VerifySum(nil, 0); err != nil {
		t.Fatalf("VerifySum on empty data: %v", err)
	}
	// Every single-byte flip must be detected.
	for i := range data {
		c := append([]byte(nil), data...)
		c[i] ^= 0x01
		if err := VerifySum(c, sum); !errors.Is(err, ErrChecksum) {
			t.Fatalf("flip at %d: err=%v, want ErrChecksum", i, err)
		}
	}
}

func TestBlockIDStripe(t *testing.T) {
	b := BlockID{Ino: 3, Stripe: 9, Index: 2}
	if b.StripeID() != (StripeID{Ino: 3, Stripe: 9}) {
		t.Fatal("StripeID wrong")
	}
}

var errorType = reflect.TypeOf((*error)(nil)).Elem()

// TestAckErr holds AckErr to one rule over every response that carries an
// Err: a nil Err is a success, a carried error comes back as the value the
// handler set — a wrapped sentinel still satisfies errors.Is, and its text
// is unchanged — and a transport error wins over any response. The table
// must name every message type with an Err field.
func TestAckErr(t *testing.T) {
	transport := errors.New("node down")
	carried := fmt.Errorf("update blk(1/2/3): %w", ErrChecksum)
	rows := []struct{ ok, failed Msg }{
		{OK, &Ack{Err: carried}},
		{&CreateResp{Ino: 7}, &CreateResp{Err: carried}},
		{&LookupResp{OSDs: []NodeID{1}}, &LookupResp{Err: carried}},
		{&ReadResp{Data: []byte("x")}, &ReadResp{Err: carried}},
		{&EpochResp{Epoch: 2}, &EpochResp{Err: carried}},
		{&JournalAck{Seq: 3}, &JournalAck{Seq: 3, Err: carried}},
		{&JournalFetchResp{}, &JournalFetchResp{Err: carried}},
		{&TransitionStatusResp{}, &TransitionStatusResp{Err: carried}},
	}
	covered := make(map[Type]bool)
	for _, r := range rows {
		typ := r.failed.Type()
		covered[typ] = true
		if err := AckErr(r.ok, nil); err != nil {
			t.Errorf("%v without Err: got %v", typ, err)
		}
		err := AckErr(r.failed, nil)
		if !errors.Is(err, ErrChecksum) || err.Error() != carried.Error() {
			t.Errorf("%v carrying %q: got %v", typ, carried, err)
		}
		if err := AckErr(r.failed, transport); err != transport {
			t.Errorf("%v with a transport error: got %v", typ, err)
		}
	}
	if err := AckErr(&Update{}, nil); err != nil {
		t.Fatalf("response without an Err field: got %v", err)
	}
	for _, r := range sizeRows {
		if _, ok := reflect.TypeOf(r.m).Elem().FieldByName("Err"); ok && !covered[r.m.Type()] {
			t.Errorf("%v has an Err field but no AckErr row", r.m.Type())
		}
	}
}
