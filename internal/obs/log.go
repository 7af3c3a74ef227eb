// Structured logging: a thin veneer over log/slog so every layer logs with
// the same shape (level, component, request_id) without re-deciding
// handler configuration at each call site.
package obs

import (
	"io"
	"log/slog"
	"os"
)

// NewLogger builds a text slog.Logger at the given level. A nil writer
// logs to stderr.
func NewLogger(w io.Writer, level slog.Level) *slog.Logger {
	if w == nil {
		w = os.Stderr
	}
	return slog.New(slog.NewTextHandler(w, &slog.HandlerOptions{Level: level}))
}
