package transport

// RecvAnyForTest exposes the untyped receive path so the golden-wire
// conformance tests can replay recorded transcripts without hardcoding
// each service's message sequence.
func (c *Conn) RecvAnyForTest() (any, error) { return c.recvAny() }

// Frame bounds, for the hostile-length tests.
const (
	MaxFramePayload = maxFramePayload
	MaxHelloPayload = maxHelloPayload
)
