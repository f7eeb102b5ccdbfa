package wire

import (
	"errors"
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"os"
	"reflect"
	"strings"
	"testing"
)

// sizeRows has one message per type with its modelled payload size.
// SizeOf is what the fabric charges to simulated NIC time, so each want is
// a literal: a layout edit moves sim-time results and must fail
// TestSizeOfIncludesHeader first. Fixed-width fields are left zero (their
// values never change a size, which FuzzUnmarshalRoundTrip checks); every
// variable-length field is filled, with distinct lengths, so each term of a
// size is covered. The comment after a row spells out its sum; 17 is
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
		{&RecoverBlock{}, 32}, // 14+1+17
		{&ReplicaFetch{}, 4},  // 4
		{&ReplicaResp{Items: []ReplicaItem{{Data: b(2)}, {Data: b(1)}}}, 59}, // 4+(14+8+4+2)+(14+8+4+1)
		{&DegradedUpdate{Data: b(2)}, 53},                                    // 4+14+8+4+2+4+17
		{&DegradedRead{}, 47},                                                // 4+14+8+4+17
		{&JournalReplica{Data: b(1)}, 64},                                    // 4+4+8+14+8+4+1+4+17
		{&JournalFetch{}, 16},                                                // 4+4+8
		{&JournalReplay{}, 4},                                                // 4
		{&JournalReplayResp{Err: e("down")}, 18},                             // 4+8+2+4
		{&ReplayUpdate{Data: b(3)}, 50},                                      // 14+8+4+3+4+17
		{&Settle{}, 4},                                                       // 4
		{&EpochUpdate{}, 5},                                                  // 1+4
		{&EpochResp{Err: e("no transition")}, 23},                            // 8+2+13
		{&MigrateBlock{}, 20},                                                // 14+4+2
		{&PGCutover{}, 12},                                                   // 4+8
		{&MigrateLog{}, 14},                                                  // 14
		{&ReplicaRetire{}, 18},                                               // 4+14
		{&PGAbort{}, 12},                                                     // 4+8
		{&JournalFetchResp{Items: []JournalItem{{Data: b(2)}, {Data: b(1)}}, Err: e("partial")}, 84}, // 4+(8+14+8+4+2)+(8+14+8+4+1)+2+7
		{&AdmitOp{}, 17},     // 17
		{&RebuildRead{}, 51}, // 14+8+8+4+17
	}
}()

type sizeRow struct {
	m    Msg
	want int // payloadSize; SizeOf adds the 40-byte header
}

// TestSizeOfIncludesHeader checks every sizeRows literal, and that every
// message has exactly one row. The message set is read from wire.go: every
// exported struct type but the five that are fields, not messages.
func TestSizeOfIncludesHeader(t *testing.T) {
	rows := make(map[string]bool)
	for _, c := range sizeRows {
		name := Name(c.m)
		if rows[name] {
			t.Errorf("%s has two size rows", name)
		}
		rows[name] = true
		if got := payloadSize(c.m); got != c.want {
			t.Errorf("%s: payload size %d, want %d", name, got, c.want)
		}
		if got := SizeOf(c.m); got != int64(40+c.want) {
			t.Errorf("%s: SizeOf %d, want %d", name, got, 40+c.want)
		}
	}
	for _, name := range messageNames(t) {
		if !rows[name] {
			t.Errorf("%s has no size row", name)
		}
	}
}

// notMessages are the package's exported structs that are fields of
// messages.
var notMessages = map[string]bool{"BlockID": true, "StripeID": true, "SpanCtx": true, "ReplicaItem": true, "JournalItem": true}

// messageNames parses the package's non-test files and returns the name of
// every exported struct type that is not in notMessages.
func messageNames(t *testing.T) []string {
	t.Helper()
	entries, err := os.ReadDir(".")
	if err != nil {
		t.Fatal(err)
	}
	fset := token.NewFileSet()
	var names []string
	for _, e := range entries {
		if !strings.HasSuffix(e.Name(), ".go") || strings.HasSuffix(e.Name(), "_test.go") {
			continue
		}
		f, err := parser.ParseFile(fset, e.Name(), nil, 0)
		if err != nil {
			t.Fatal(err)
		}
		for _, d := range f.Decls {
			g, ok := d.(*ast.GenDecl)
			if !ok || g.Tok != token.TYPE {
				continue
			}
			for _, sp := range g.Specs {
				ts := sp.(*ast.TypeSpec)
				if _, isStruct := ts.Type.(*ast.StructType); isStruct && ts.Name.IsExported() && !notMessages[ts.Name.Name] {
					names = append(names, ts.Name.Name)
				}
			}
		}
	}
	if len(names) == 0 {
		t.Fatal("found no message structs")
	}
	return names
}

// untracedPayloads names the payload-bearing messages exempt from carrying
// a SpanCtx, each with its reason.
var untracedPayloads = map[string]string{
	"ReadResp": "a response rides the requester's rpc span; netsim links the return hop without a carried context",
}

// TestPayloadMessagesTracedAndSummed holds every message (each has a size
// row) to the wire conventions: one with a []byte field carries a Sum
// checksum, so corruption injected by the chaos fabric is detectable at the
// receiver, and a SpanCtx, so the tracer follows the data path hop by hop.
// Both are the ones the layout reads: Verify rejects a payload that does not
// match the Sum, and Span finds the SpanCtx.
func TestPayloadMessagesTracedAndSummed(t *testing.T) {
	for _, r := range sizeRows {
		name, st := Name(r.m), reflect.TypeOf(r.m).Elem()
		payload, sum, span := false, false, false
		for i := range st.NumField() {
			f := st.Field(i)
			payload = payload || f.Type == bytesType
			sum = sum || strings.HasSuffix(f.Name, "Sum")
			span = span || f.Type == spanType
		}
		if payload && !sum {
			t.Errorf("%s carries a payload but no Sum", name)
		}
		if reason, exempt := untracedPayloads[name]; exempt {
			if span || !payload {
				t.Errorf("%s is exempt from a SpanCtx (%s) but has one or carries no payload", name, reason)
			}
		} else if payload && !span {
			t.Errorf("%s carries a payload but no SpanCtx", name)
		}
		if payload && !errors.Is(Verify(WithPayload(r.m, []byte("x"))), ErrChecksum) {
			t.Errorf("%s: Verify does not check the payload against the Sum", name)
		}
		if (Span(r.m) != nil) != span {
			t.Errorf("%s: has a SpanCtx field %v, Span finds one %v", name, span, Span(r.m) != nil)
		}
	}
}

// FuzzUnmarshalRoundTrip fills a message's fields from an arbitrary
// (row, payload) pair; nothing is unmarshalled (the name predates the byte
// codec's removal, and the rename is open on ROADMAP). The row index
// (modulo the table) picks a sizeRows message, every byte-slice and string
// field takes the payload, every error field an
// error with the payload as its text, and every fixed-width field a value
// drawn from it. The message's modelled size must move by exactly the
// variable bytes it gained: no fixed-width value (a Sum, an epoch, a
// SpanCtx traced or not) changes a size. The seeds give every row an empty
// and a non-empty payload, plus an index past the end of the table.
func FuzzUnmarshalRoundTrip(f *testing.F) {
	for i := range sizeRows {
		f.Add(uint(i), []byte(nil))
		f.Add(uint(i), []byte("two-stage update"))
	}
	f.Add(uint(len(sizeRows)), []byte{})
	f.Fuzz(func(t *testing.T, row uint, payload []byte) {
		proto := sizeRows[row%uint(len(sizeRows))].m
		m, grew := fill(t, proto, payload)
		if got, want := payloadSize(m), payloadSize(proto)+grew; got != want {
			t.Fatalf("%s with %d-byte payload: payload size %d, want %d", Name(m), len(payload), got, want)
		}
		if got := SizeOf(m); got != int64(headerSize+payloadSize(m)) {
			t.Fatalf("%s: SizeOf %d, want %d", Name(m), got, headerSize+payloadSize(m))
		}
	})
}

// fill returns a copy of proto with every field reachable through
// structs and slice elements overwritten: byte slices and strings with
// payload, errors with an error whose text is payload, integers and bools
// with values drawn from it. Other slices keep their length. grew is the
// number of variable bytes the copy gained.
func fill(t *testing.T, proto Msg, payload []byte) (m Msg, grew int) {
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
	var set func(f reflect.Value)
	set = func(f reflect.Value) {
		switch f.Kind() {
		case reflect.Struct:
			for j := range f.NumField() {
				set(f.Field(j))
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
				set(f.Index(j))
			}
		case reflect.String:
			grew += len(payload) - f.Len()
			f.SetString(string(payload))
		case reflect.Interface:
			if f.Type() != errorType {
				t.Fatalf("%s: interface field %v has no modelled size", Name(proto), f.Type())
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
			t.Fatalf("%s: field of kind %v has no modelled size", Name(proto), f.Kind())
		}
	}
	set(v.Elem())
	return v.Interface().(Msg), grew
}

// TestChecksum holds Verify, the one verify point every receiver uses: an
// intact or empty payload verifies, every single-byte flip is ErrChecksum,
// a message without a Sum always verifies, and a two-payload message is
// summed over its byte fields in declaration order (ParixAppend: New, then
// Orig), so a flip in either — or the two swapped — fails.
func TestChecksum(t *testing.T) {
	if Checksum(nil) != 0 {
		t.Fatal("Checksum(nil) != 0: empty payloads must verify against zero Sum")
	}
	data := []byte("two-stage update")
	sum := Checksum(data)
	if err := Verify(&PutBlock{Data: data, Sum: sum}); err != nil {
		t.Fatalf("Verify on intact data: %v", err)
	}
	if err := Verify(&PutBlock{}); err != nil {
		t.Fatalf("Verify on empty data: %v", err)
	}
	// Every single-byte flip must be detected.
	for i := range data {
		c := append([]byte(nil), data...)
		c[i] ^= 0x01
		if err := Verify(&Update{Data: c, Sum: sum}); !errors.Is(err, ErrChecksum) {
			t.Fatalf("flip at %d: err=%v, want ErrChecksum", i, err)
		}
	}
	if err := Verify(&ReadBlock{Off: 3}); err != nil {
		t.Fatalf("Verify on a message without a Sum: %v", err)
	}
	nw, orig := []byte("new"), []byte("orig")
	pair := Checksum([]byte("neworig"))
	if err := Verify(&ParixAppend{New: nw, Orig: orig, Sum: pair}); err != nil {
		t.Fatalf("ParixAppend summed New then Orig: %v", err)
	}
	if err := Verify(&ParixAppend{New: orig, Orig: nw, Sum: pair}); !errors.Is(err, ErrChecksum) {
		t.Fatalf("ParixAppend with New and Orig swapped: err=%v, want ErrChecksum", err)
	}
	if err := Verify(&ParixAppend{Orig: orig, Sum: Checksum(orig)}); err != nil {
		t.Fatalf("ParixAppend with Orig alone: %v", err)
	}
}

// TestSpanAndPayload: Span points into the message (stamping it stamps the
// message) and is nil for a message without a SpanCtx; WithPayload swaps
// the first byte field of a copy and leaves the original alone.
func TestSpanAndPayload(t *testing.T) {
	u := &Update{Data: []byte("abc"), Sum: 7}
	*Span(u) = SpanCtx{Trace: 1, Span: 2, Op: 3}
	if u.Span != (SpanCtx{Trace: 1, Span: 2, Op: 3}) {
		t.Fatalf("stamping Span(u) left u.Span %+v", u.Span)
	}
	if Span(&ReadResp{}) != nil || Span(&Ack{}) != nil {
		t.Fatal("Span of a message without a SpanCtx is not nil")
	}
	cp, ok := WithPayload(u, []byte("xyz")).(*Update)
	if !ok || string(cp.Data) != "xyz" || cp.Sum != 7 || cp.Span != u.Span || string(u.Data) != "abc" {
		t.Fatalf("WithPayload gave %+v from %+v", cp, u)
	}
	if string(Payload(cp)) != "xyz" || Payload(&Ack{}) != nil {
		t.Fatal("Payload does not return the first byte field")
	}
}

// TestLayoutPanicsNamingField: a field kind the layout rule does not cover
// fails the first size asked of its message, naming the type and field.
func TestLayoutPanicsNamingField(t *testing.T) {
	type withInt struct {
		Blk BlockID
		N   int
	}
	type withPointer struct {
		Next *Update
	}
	for _, c := range []struct {
		m    Msg
		want string
	}{{&withInt{}, "withInt.N"}, {&withPointer{}, "withPointer.Next"}} {
		func() {
			defer func() {
				if r, _ := recover().(string); !strings.Contains(r, c.want) {
					t.Errorf("%T: panic %q, want one naming %s", c.m, r, c.want)
				}
			}()
			SizeOf(c.m)
		}()
	}
}

func TestBlockIDStripe(t *testing.T) {
	b := BlockID{Ino: 3, Stripe: 9, Index: 2}
	if b.StripeID() != (StripeID{Ino: 3, Stripe: 9}) {
		t.Fatal("StripeID wrong")
	}
}

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
		{&JournalFetchResp{}, &JournalFetchResp{Err: carried}},
		{&JournalReplayResp{Extents: 3, Bytes: 96}, &JournalReplayResp{Err: carried}},
	}
	covered := make(map[string]bool)
	for _, r := range rows {
		name := Name(r.failed)
		covered[name] = true
		if err := AckErr(r.ok, nil); err != nil {
			t.Errorf("%s without Err: got %v", name, err)
		}
		err := AckErr(r.failed, nil)
		if !errors.Is(err, ErrChecksum) || err.Error() != carried.Error() {
			t.Errorf("%s carrying %q: got %v", name, carried, err)
		}
		if err := AckErr(r.failed, transport); err != transport {
			t.Errorf("%s with a transport error: got %v", name, err)
		}
	}
	if err := AckErr(&Update{}, nil); err != nil {
		t.Fatalf("response without an Err field: got %v", err)
	}
	for _, r := range sizeRows {
		if _, ok := reflect.TypeOf(r.m).Elem().FieldByName("Err"); ok && !covered[Name(r.m)] {
			t.Errorf("%s has an Err field but no AckErr row", Name(r.m))
		}
	}
}
