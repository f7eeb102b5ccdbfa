// Package wire is the wireproto fixture: a miniature message set where each
// defective message violates exactly one rule, plus conformant messages and
// non-messages that must stay quiet. The analyzer enumerates messages from
// the Type() Type method set — there is no registration list.
package wire

type Type uint8

// SpanCtx mirrors the real wire package's trace context.
type SpanCtx struct {
	Trace, Span uint64
	Op          uint8
}

// Good is fully conformant: payload-bearing, traced and checksummed. Must
// stay quiet.
type Good struct {
	Data []byte
	Sum  uint32
	Span SpanCtx
}

func (*Good) Type() Type { return 1 }

// Control carries no payload: exempt from the SpanCtx and Sum rules.
type Control struct{ N uint32 }

func (*Control) Type() Type { return 2 }

// helper has no Type() method: not a message, never checked.
type helper struct{ Data []byte }

// Untraced carries a payload but no SpanCtx.
type Untraced struct { // want "payload-bearing message Untraced .* no SpanCtx"
	Data []byte
	Sum  uint32
}

func (*Untraced) Type() Type { return 6 }

// Unsummed carries a payload but no checksum.
type Unsummed struct { // want "payload-bearing message Unsummed .* no Sum checksum"
	Data []byte
	Span SpanCtx
}

func (*Unsummed) Type() Type { return 7 }

// Response rides its requester's span by design — the justified escape.
//
//lint:allow wireproto(fixture: response rides the requester's rpc span)
type Response struct {
	Data []byte
	Sum  uint32
}

func (*Response) Type() Type { return 8 }
