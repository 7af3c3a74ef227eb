package serve

import (
	"log/slog"

	"tpusim/internal/obs"
	"tpusim/internal/tensor"
)

// eventKind names one lifecycle transition of a lane.
type eventKind uint8

const (
	// A request's admission: it joined the queue, or was refused because the
	// queue was full, the breaker was in brownout or open, or the server
	// was closed.
	evAdmitted eventKind = iota
	evShedQueue
	evShedBrownout
	evShedBreaker
	evClosed
	// A batch the dispatcher took settles its requests: shed at dispatch
	// (their deadline no longer met), served, or failed.
	evExpired
	evServed
	evFailed
	// The dispatcher took a batch off the queue; the breaker moved.
	evTaken
	evBreaker
	numKinds
)

// event is one lifecycle transition of a lane, built on the stack and
// handed to Server.emit (server.go), its one consumer.
type event struct {
	kind eventKind
	// call is the request an admission event admits or refuses, and admit
	// its admit span. calls are the requests a batch event settles: a
	// served batch's outputs completed at on the lane clock, a failed one's
	// error is err.
	call    *call
	admit   *obs.Span
	calls   []*call
	outputs []*tensor.F32
	at      float64
	err     error
	// depth is the queue depth after an admission or a take; from and to
	// are a breaker transition's states.
	depth    int
	from, to BreakerState
}

// kinds is what each event kind projects onto besides the metrics fold:
// the outcome attribute it ends a request's spans with, the error a request
// it settles returns, and its log line's level and message (no line
// without one).
var kinds = [numKinds]struct {
	outcome string
	err     error
	level   slog.Level
	msg     string
}{
	evAdmitted:     {outcome: "admitted"},
	evShedQueue:    {"shed_queue", ErrOverloaded, slog.LevelWarn, "request shed at admission"},
	evShedBrownout: {"brownout", ErrBrownout, slog.LevelWarn, "request shed at admission"},
	evShedBreaker:  {"breaker_open", ErrBreakerOpen, slog.LevelWarn, "request shed at admission"},
	evClosed:       {outcome: "closed", err: ErrClosed},
	evExpired:      {"expired", ErrDeadline, slog.LevelWarn, "request shed at dispatch"},
	evServed:       {outcome: "ok", level: slog.LevelDebug, msg: "request served"},
	evFailed:       {outcome: "error", level: slog.LevelError, msg: "request failed"},
	evBreaker:      {level: slog.LevelWarn, msg: "breaker transition"},
}
