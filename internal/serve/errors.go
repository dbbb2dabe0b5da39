// Package serve implements the datalife streaming service: a long-running
// server that accepts trace-event streams from many concurrent clients over a
// length-prefixed CRC-framed wire protocol, journals every session before
// acknowledging (crash-consistent ingest), feeds per-session collectors and
// incremental DFL indexes, and answers advisor/critical-path/pattern queries
// against live snapshots mid-run.
//
// The robustness layer is the point: admission control with a bounded session
// table and typed rejection, per-session ingest backpressure (bounded queues,
// slow-client deadlines, overload shedding that degrades query freshness
// before dropping ingest), client-side retry with capped exponential backoff,
// idempotent resume via journaled sequence numbers, and kill-and-restore
// recovery that replays journals (tolerating torn tails) and continues
// byte-identically.
package serve

import "fmt"

// SessionKind classifies session-level failures and notable conditions,
// mirroring the sim.FailureKind discipline: a compact enum, sentinel errors
// for errors.Is, and a typed *SessionError carrier.
type SessionKind uint8

const (
	// KindRejected is an admission failure: the session table is full, the
	// session name is already attached to a live connection, or the name is
	// malformed. Not retryable when malformed; capacity rejections are. An
	// event batch holding an invalid event is rejected the same way, before
	// it is journaled, and is not retryable.
	KindRejected SessionKind = iota
	// KindOverloaded is ingest backpressure: the session's bounded queue
	// stayed full past the enqueue deadline, or the journal could not accept
	// the batch. The batch was not journaled or applied; the client backs
	// off and resends.
	KindOverloaded
	// KindDeadline is a slow-client eviction: the connection sat idle past
	// the server's idle deadline. Session state persists; reconnect resumes.
	KindDeadline
	// KindTornStream is a framing or sequencing violation on the wire: a
	// corrupt frame, an oversize length, or a sequence gap the journal
	// cannot reconcile. The connection is dropped; journaled state persists.
	KindTornStream
	// KindResumed is not a failure: it marks a session that recovered prior
	// journaled state (after a server restart or client reconnect).
	KindResumed

	numSessionKinds // sentinel for validation
)

var sessionKindNames = [...]string{
	"rejected", "overloaded", "deadline", "torn-stream", "resumed",
}

func (k SessionKind) String() string {
	if int(k) < len(sessionKindNames) {
		return sessionKindNames[k]
	}
	return fmt.Sprintf("session(%d)", uint8(k))
}

// Retryable reports whether a client should back off and retry after a
// failure of this kind. Torn streams are retryable too: reconnecting
// re-handshakes from the journaled sequence number.
func (k SessionKind) Retryable() bool {
	return k == KindOverloaded || k == KindDeadline || k == KindTornStream
}

// Sentinel errors matching each SessionKind through errors.Is.
var (
	// ErrRejected matches SessionErrors with KindRejected.
	ErrRejected = fmt.Errorf("serve: session rejected")
	// ErrOverloaded matches SessionErrors with KindOverloaded.
	ErrOverloaded = fmt.Errorf("serve: server overloaded")
	// ErrDeadline matches SessionErrors with KindDeadline.
	ErrDeadline = fmt.Errorf("serve: idle deadline exceeded")
	// ErrTornStream matches SessionErrors with KindTornStream.
	ErrTornStream = fmt.Errorf("serve: torn stream")
	// ErrResumed matches SessionErrors with KindResumed.
	ErrResumed = fmt.Errorf("serve: session resumed")
)

// Sentinel returns the errors.Is target for this session kind, or nil for
// kinds without one.
func (k SessionKind) Sentinel() error {
	switch k {
	case KindRejected:
		return ErrRejected
	case KindOverloaded:
		return ErrOverloaded
	case KindDeadline:
		return ErrDeadline
	case KindTornStream:
		return ErrTornStream
	case KindResumed:
		return ErrResumed
	}
	return nil
}

// SessionError is the typed error the serve package reports for session-level
// conditions: which session, at which journaled sequence number, and why.
type SessionError struct {
	// Session is the session name ("" when the failure precedes naming).
	Session string
	// Seq is the durable (journaled) sequence number at the time of the
	// failure — the point an idempotent resume continues from.
	Seq uint64
	// Kind classifies the condition.
	Kind SessionKind
	// Cause is the underlying error, if any.
	Cause error
}

func (e *SessionError) Error() string {
	if e.Cause == nil {
		return fmt.Sprintf("serve: session %q at seq %d: %s", e.Session, e.Seq, e.Kind)
	}
	return fmt.Sprintf("serve: session %q at seq %d: %s: %v", e.Session, e.Seq, e.Kind, e.Cause)
}

// Unwrap exposes the cause to errors.Is/As chains.
func (e *SessionError) Unwrap() error { return e.Cause }

// Is matches the sentinel for the error's kind, so
// errors.Is(err, serve.ErrOverloaded) works on errors wrapping a
// *SessionError. Cause-chain matching still happens through Unwrap.
func (e *SessionError) Is(target error) bool {
	s := e.Kind.Sentinel()
	return s != nil && target == s
}
