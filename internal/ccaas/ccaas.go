// Package ccaas assembles the full confidential-computing-as-a-service
// deployment of the paper's Fig. 1 over real connections: a Server hosts
// bootstrap enclaves (one per session), attests itself to connecting
// parties with the Section III-A protocol, accepts a target binary from the
// code provider and data from the data owner over the authenticated
// channel, runs the verified service, and streams the padded results back.
//
// The session layer is built to survive a hostile network: per-session and
// per-message deadlines, a concurrent-session cap with authenticated
// rejection, per-session panic recovery, accept retry with backoff, and a
// draining Shutdown. The client side pairs it with DialRetry and Retry
// (exponential backoff + jitter) so transient faults are absorbed without
// operator intervention.
package ccaas

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"time"

	"deflection/internal/cpu"
	"deflection/internal/obs"
	"deflection/internal/ra"
	"deflection/internal/runtime"
	"deflection/internal/vplane"
)

// Message tags of the post-handshake protocol. Every message travels
// sealed inside the attested channel.
const (
	tagBinary = 'C' // code provider delivers the target binary
	tagData   = 'D' // data owner uploads an input message
	tagRun    = 'X' // execute the verified service
	tagTrace  = 'T' // attach an observability trace ID to the session
	tagBye    = 'Q' // end of session
)

// runHook, when non-nil, runs at the top of every tagRun dispatch. Test
// hook for injecting faults (panics) inside the session loop.
var runHook func()

// statusReply is the control envelope the server sends when it cannot admit
// a session (capacity reached or draining). Clients detect it via the Busy
// field before decoding a typed reply.
type statusReply struct {
	Busy  bool   `json:"busy,omitempty"`
	Error string `json:"error,omitempty"`
}

// loadReply is the server's answer to a binary delivery.
type loadReply struct {
	OK         bool   `json:"ok"`
	Error      string `json:"error,omitempty"`
	BinaryHash []byte `json:"binary_hash,omitempty"`
	TextSize   int    `json:"text_size,omitempty"`
	Guards     int    `json:"guards,omitempty"`
	// Cached reports that the verdict was served from the verification
	// plane's content-addressed cache (the pipeline was skipped).
	Cached bool `json:"cached,omitempty"`
}

// dataReply acknowledges a data upload (or rejects an oversized one).
type dataReply struct {
	OK    bool   `json:"ok"`
	Size  int    `json:"size,omitempty"`
	Error string `json:"error,omitempty"`
}

// traceMsg carries the client-minted trace ID inside the sealed channel.
// Sending it through the attested stream (rather than letting the gateway
// inject it) keeps the proxy unable to originate a single session byte;
// the ID itself is observability-only and carries no authority.
type traceMsg struct {
	Trace string `json:"trace"`
}

// traceReply acknowledges a trace attachment.
type traceReply struct {
	OK    bool   `json:"ok"`
	Error string `json:"error,omitempty"`
}

// RunReply is the server's answer to a run request.
type RunReply struct {
	Exit       int64    `json:"exit"`
	Trapped    bool     `json:"trapped"`
	TrapReason string   `json:"trap_reason,omitempty"`
	Insts      uint64   `json:"insts"`
	Outputs    [][]byte `json:"outputs"`
}

// Handle drives one session on an established connection. A panic anywhere
// in the session (verifier, loader, emulator) is converted into an error so
// it kills only this session, never the server.
func (s *Server) Handle(transport io.ReadWriter) (err error) {
	m := s.metrics()
	sid := s.sessionSeq.Add(1)
	start := time.Now()
	admitted := false
	// Session phases accumulate in a local trace and flush at session end:
	// the trace ID arrives mid-session (a sealed tagTrace message), so spans
	// recorded before it — attestation included — must wait for the final ID
	// before they are exported to the span collector.
	var tid obs.TraceID
	sessTr := obs.NewTrace("session")
	defer func() {
		if r := recover(); r != nil {
			err = fmt.Errorf("ccaas: session panic: %v", r)
			m.Counter("ccaas_sessions_panicked_total").Inc()
		}
		if err != nil && isTimeoutErr(err) {
			m.Counter("ccaas_sessions_timed_out_total").Inc()
		}
		if admitted {
			m.Gauge("ccaas_sessions_active").Add(-1)
			m.Histogram("ccaas_session_seconds").ObserveDuration(time.Since(start))
		}
		s.cfg.Spans.AddTrace(tid, sessTr)
		s.cfg.Spans.Observe(tid, "session", start, time.Since(start), "sid", sid)
		outcome := "ok"
		if err != nil {
			outcome = err.Error()
		}
		s.log("session_end", "sid", sid, "dur", time.Since(start), "outcome", outcome)
	}()

	release, admit, reason, draining := s.acquire(transport)
	defer release()
	s.log("session_start", "sid", sid, "admit", admit)

	conn := newDeadlineRW(transport, s.cfg.IOTimeout, s.cfg.SessionTimeout)

	meas, err := s.Measurement()
	if err != nil {
		return err
	}
	attestStart := time.Now()
	sess := ra.NewEnclaveSession()
	quote, err := s.cfg.Platform.Quote(meas, sess.ReportData())
	if err != nil {
		return err
	}
	if err := sess.SendHello(conn, quote); err != nil {
		return err
	}
	_, ch, err := sess.Accept(conn)
	if err != nil {
		return err
	}
	m.Histogram("ccaas_attest_seconds").ObserveDuration(time.Since(attestStart))
	sessTr.Add("attest", time.Since(attestStart), "sid", sid)

	reply := func(v any) error {
		payload, err := json.Marshal(v)
		if err != nil {
			return fmt.Errorf("ccaas: %w", err)
		}
		sealed := ch.Seal(payload)
		m.Counter("ccaas_bytes_sealed_total").Add(int64(len(sealed)))
		return ra.WriteFrame(conn, sealed)
	}

	if !admit {
		if draining {
			m.Counter("ccaas_sessions_drained_total").Inc()
		} else {
			m.Counter("ccaas_sessions_rejected_busy_total").Inc()
		}
		// Reject over the attested channel so the party can tell an
		// authenticated capacity rejection from an attack. The party may
		// already be mid-send on a synchronous transport (net.Pipe), so
		// drain its frames while the rejection goes out; the drain ends
		// when the caller closes the connection.
		go func() { _, _ = io.Copy(io.Discard, conn) }()
		if rerr := reply(statusReply{Busy: true, Error: reason}); rerr != nil {
			return rerr
		}
		return fmt.Errorf("%w: %s", ErrServerBusy, reason)
	}

	m.Counter("ccaas_sessions_accepted_total").Inc()
	m.Gauge("ccaas_sessions_active").Add(1)
	admitted = true

	// Only admitted sessions pay for an enclave.
	boot, err := runtime.New(s.cfg.Enclave, s.manifest())
	if err != nil {
		return err
	}

	for {
		frame, err := ra.ReadFrame(conn)
		if err != nil {
			return err
		}
		msg, err := ch.Open(frame)
		if err != nil {
			return err
		}
		m.Counter("ccaas_bytes_unsealed_total").Add(int64(len(msg)))
		if len(msg) == 0 {
			return errors.New("ccaas: empty message")
		}
		switch msg[0] {
		case tagBinary:
			loadStart := time.Now()
			var (
				rep *runtime.LoadReport
				err error
				src = vplane.SourceCold
			)
			if s.cfg.Verify != nil {
				rep, src, err = s.cfg.Verify.Load(obs.ContextWithTrace(context.Background(), tid), boot, msg[1:])
			} else {
				rep, err = boot.ReceiveBinary(msg[1:])
				if err == nil {
					// The cold pipeline ran in this session's own enclave:
					// export its stage trace under this session's trace ID.
					s.cfg.Spans.AddTrace(tid, boot.LastTrace())
				}
			}
			loadDur := time.Since(loadStart)
			sessTr.Add("load", loadDur, "sid", sid, "source", src, "ok", err == nil)
			m.Histogram("ccaas_load_seconds").Observe(loadDur.Seconds())
			if s.cfg.Verify != nil {
				// Split latency by verdict source so the cached-vs-cold
				// speedup is visible in /metrics.
				if src == vplane.SourceCache {
					m.Histogram("ccaas_load_cached_seconds").Observe(loadDur.Seconds())
				} else {
					m.Histogram("ccaas_load_cold_seconds").Observe(loadDur.Seconds())
				}
			}
			if errors.Is(err, vplane.ErrOverloaded) || errors.Is(err, vplane.ErrClosed) {
				// The verify plane shed the request: answer with an
				// authenticated busy envelope (transient, retryable) and
				// keep the session alive.
				m.Counter("ccaas_verify_overloaded_total").Inc()
				s.log("binary_shed", "sid", sid, "err", err)
				if rerr := reply(statusReply{Busy: true, Error: err.Error()}); rerr != nil {
					return rerr
				}
				continue
			}
			if err != nil {
				m.Counter("ccaas_binaries_rejected_total").Inc()
				s.log("binary_rejected", "sid", sid, "source", src, "err", err)
				if rerr := reply(loadReply{OK: false, Error: err.Error(), Cached: src == vplane.SourceCache}); rerr != nil {
					return rerr
				}
				continue
			}
			m.Counter("ccaas_binaries_verified_total").Inc()
			s.log("binary_verified", "sid", sid, "source", src,
				"hash", fmt.Sprintf("%x", rep.BinaryHash[:8]), "text_bytes", rep.TextSize)
			if err := reply(loadReply{
				OK:         true,
				BinaryHash: rep.BinaryHash[:],
				TextSize:   rep.TextSize,
				Guards:     rep.Stats.StoreGuards + rep.Stats.CFIGuards + rep.Stats.AEXChecks,
				Cached:     src == vplane.SourceCache,
			}); err != nil {
				return err
			}
		case tagData:
			data := msg[1:]
			if len(data) > s.cfg.MaxInputSize {
				if rerr := reply(dataReply{OK: false, Error: fmt.Sprintf(
					"input of %d bytes exceeds the %d-byte cap", len(data), s.cfg.MaxInputSize)}); rerr != nil {
					return rerr
				}
				continue
			}
			boot.ReceiveData(data)
			sessTr.Add("data", 0, "sid", sid, "bytes", len(data))
			if err := reply(dataReply{OK: true, Size: len(data)}); err != nil {
				return err
			}
		case tagRun:
			if runHook != nil {
				runHook()
			}
			runStart := time.Now()
			res, err := boot.Run(runtime.RunConfig{Gas: s.cfg.Gas})
			sessTr.Add("run", time.Since(runStart), "sid", sid, "ok", err == nil)
			m.Histogram("ccaas_run_seconds").ObserveDuration(time.Since(runStart))
			m.Counter("ccaas_runs_total").Inc()
			if err != nil {
				m.Counter("ccaas_runs_trapped_total").Inc()
				if rerr := reply(RunReply{Trapped: true, TrapReason: err.Error()}); rerr != nil {
					return rerr
				}
				continue
			}
			rr := RunReply{
				Exit:    res.CPU.ExitValue,
				Insts:   res.CPU.Insts,
				Outputs: res.Outputs,
			}
			if res.CPU.Status != cpu.StatusHalt {
				rr.Trapped = true
				rr.TrapReason = res.CPU.Trap.String()
				m.Counter("ccaas_runs_trapped_total").Inc()
			}
			s.log("run", "sid", sid, "exit", rr.Exit, "insts", rr.Insts, "trapped", rr.Trapped)
			if err := reply(rr); err != nil {
				return err
			}
			boot.ResetIO()
		case tagTrace:
			var tm traceMsg
			if err := json.Unmarshal(msg[1:], &tm); err != nil {
				if rerr := reply(traceReply{Error: "malformed trace message"}); rerr != nil {
					return rerr
				}
				continue
			}
			id, err := obs.ParseTraceID(tm.Trace)
			if err != nil {
				if rerr := reply(traceReply{Error: "malformed trace id"}); rerr != nil {
					return rerr
				}
				continue
			}
			tid = id
			s.log("trace_attached", "sid", sid, "trace", tid)
			if err := reply(traceReply{OK: true}); err != nil {
				return err
			}
		case tagBye:
			return nil
		default:
			return fmt.Errorf("ccaas: unknown message tag %q", msg[0])
		}
	}
}
