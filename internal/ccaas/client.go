package ccaas

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"time"

	"deflection/attest"
	"deflection/internal/obs"
	"deflection/internal/ra"
)

// Client is a remote party's session handle.
type Client struct {
	conn io.ReadWriter
	ch   *ra.Channel
}

// GatewayStatus is the unsealed control frame a deflection-gateway sends in
// place of the enclave hello when it cannot place the session on any
// backend (pool exhausted, admission shed, all breakers open, or the
// gateway is draining). It is necessarily unauthenticated — the gateway
// holds no session keys — so clients treat it exactly like a transport
// failure: transient, retryable, and carrying no authority beyond "try
// again later". RetryAfterMS, when set, is the gateway's admission-shaping
// hint: retrying sooner than that will almost certainly be shed again, so
// the retry helpers use it as a backoff floor. Being unauthenticated it can
// only slow a client down by what the client itself accepts — Dial caps it
// at MaxRetryAfter so a hostile middlebox cannot park clients forever.
type GatewayStatus struct {
	GatewayBusy  bool   `json:"gateway_busy"`
	Error        string `json:"error,omitempty"`
	RetryAfterMS int64  `json:"retry_after_ms,omitempty"`
}

// ErrGatewayBusy is returned by Dial when a fronting gateway answered with
// an unauthenticated busy/failover reply instead of an enclave hello. It is
// transient: DialRetry and Retry back off and re-dial, which gives the
// gateway a chance to route the session to a recovered backend.
var ErrGatewayBusy = errors.New("ccaas: gateway busy")

// MaxRetryAfter caps the retry_after_ms hint a client will honor. The hint
// arrives on an unauthenticated frame; anything above the cap is clamped so
// the worst a forged busy reply can do is delay one retry by a minute.
const MaxRetryAfter = time.Minute

// BusyError is the parsed gateway busy reply: ErrGatewayBusy plus the
// shaping hint. errors.Is(err, ErrGatewayBusy) matches it, so existing
// transient-classification and tests are unaffected.
type BusyError struct {
	Reason     string
	RetryAfter time.Duration
}

func (e *BusyError) Error() string {
	if e.RetryAfter > 0 {
		return fmt.Sprintf("%v: %s (retry after %v)", ErrGatewayBusy, e.Reason, e.RetryAfter)
	}
	return fmt.Sprintf("%v: %s", ErrGatewayBusy, e.Reason)
}

// Is makes the typed busy reply interchangeable with the sentinel.
func (e *BusyError) Is(target error) bool { return target == ErrGatewayBusy }

// Dial attests the server's enclave (via the attestation service, against
// the expected bootstrap measurement) and returns a session client. When
// the connection runs through a deflection-gateway, a gateway busy reply is
// detected before the handshake and surfaced as ErrGatewayBusy.
func Dial(conn io.ReadWriter, as *attest.Service, expected [32]byte, role ra.Role) (*Client, error) {
	frame, err := ra.ReadFrame(conn)
	if err != nil {
		return nil, err
	}
	// A gateway that could not place the session answers with an unsealed
	// status frame instead of the enclave hello. The hello's required
	// fields are absent from it, so the two cannot be confused.
	var gs GatewayStatus
	if err := json.Unmarshal(frame, &gs); err == nil && gs.GatewayBusy {
		ra := time.Duration(gs.RetryAfterMS) * time.Millisecond
		if ra < 0 {
			ra = 0
		}
		if ra > MaxRetryAfter {
			ra = MaxRetryAfter
		}
		return nil, &BusyError{Reason: gs.Error, RetryAfter: ra}
	}
	_, ch, err := attest.PartyHandshakeHello(frame, conn, as, expected, role)
	if err != nil {
		return nil, err
	}
	return &Client{conn: conn, ch: ch}, nil
}

func (c *Client) send(tag byte, payload []byte) error {
	msg := make([]byte, 1+len(payload))
	msg[0] = tag
	copy(msg[1:], payload)
	return ra.WriteFrame(c.conn, c.ch.Seal(msg))
}

func (c *Client) recv(v any) error {
	frame, err := ra.ReadFrame(c.conn)
	if err != nil {
		return err
	}
	payload, err := c.ch.Open(frame)
	if err != nil {
		return err
	}
	// A busy envelope can arrive in place of any typed reply: the server
	// rejects over the attested channel when at capacity or draining.
	var probe statusReply
	if err := json.Unmarshal(payload, &probe); err == nil && probe.Busy {
		return fmt.Errorf("%w: %s", ErrServerBusy, probe.Error)
	}
	if err := json.Unmarshal(payload, v); err != nil {
		return fmt.Errorf("ccaas: %w", err)
	}
	return nil
}

// SendBinary delivers a target binary and returns the server's verification
// verdict.
func (c *Client) SendBinary(objBytes []byte) (hash []byte, guards int, err error) {
	if err := c.send(tagBinary, objBytes); err != nil {
		return nil, 0, err
	}
	var rep loadReply
	if err := c.recv(&rep); err != nil {
		return nil, 0, err
	}
	if !rep.OK {
		return nil, 0, fmt.Errorf("ccaas: binary rejected: %s", rep.Error)
	}
	return rep.BinaryHash, rep.Guards, nil
}

// SendTrace attaches a client-minted trace ID to the session over the
// sealed channel. The server tags all subsequent (and session-scoped)
// spans with it, which is what lets an operator correlate gateway spans,
// session phases and verifier stages across processes. The ID is
// observability-only: servers that predate the message reject it with a
// structured error, which callers may ignore.
func (c *Client) SendTrace(id obs.TraceID) error {
	payload, err := json.Marshal(traceMsg{Trace: id.String()})
	if err != nil {
		return fmt.Errorf("ccaas: %w", err)
	}
	if err := c.send(tagTrace, payload); err != nil {
		return err
	}
	var rep traceReply
	if err := c.recv(&rep); err != nil {
		return err
	}
	if !rep.OK {
		return fmt.Errorf("ccaas: trace rejected: %s", rep.Error)
	}
	return nil
}

// SendData uploads one input message and waits for the server's
// acknowledgement; the server rejects inputs over its configured size cap
// with a structured error.
func (c *Client) SendData(b []byte) error {
	if err := c.send(tagData, b); err != nil {
		return err
	}
	var rep dataReply
	if err := c.recv(&rep); err != nil {
		return err
	}
	if !rep.OK {
		return fmt.Errorf("ccaas: data rejected: %s", rep.Error)
	}
	return nil
}

// Run executes the loaded service and returns the reply (outputs are the
// padded frames; unpad with runtime.Unpad).
func (c *Client) Run() (*RunReply, error) {
	if err := c.send(tagRun, nil); err != nil {
		return nil, err
	}
	var rr RunReply
	if err := c.recv(&rr); err != nil {
		return nil, err
	}
	return &rr, nil
}

// Close ends the session.
func (c *Client) Close() error { return c.send(tagBye, nil) }
