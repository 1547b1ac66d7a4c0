// Package daemon is the always-on simulation service behind cmd/simd: it
// keeps one warm bench.Farm across requests, serves run requests from
// concurrent clients over a JSON-over-unix-socket protocol, and memoizes
// (tool, seed, normalized config, code-fingerprint) → artifact in a
// crash-safe internal/store. Robustness is the design center (see
// doc/DAEMON.md): every request is deadline-bounded and cancellable,
// admission control bounds the queue over the farm and sheds load down a
// degradation ladder (memoized artifact → reduced-window preview → typed
// overload), transient failures retry with exponential backoff + jitter,
// worker panics are recovered per-request, and SIGTERM drains in-flight
// requests before exit. The daemon chaos suite (chaos_test.go) injects
// panics, store corruption, disconnects and overload floods and holds
// the daemon to: never crash, never serve corrupt bytes, stay 0-drift
// with the one-shot tools, which run specs through the same
// runspec.Execute.
package daemon

import (
	"repro/internal/obs"
	"repro/internal/runspec"
	"repro/internal/store"
)

// Error kinds carried in Response.ErrKind so clients can react without
// string-matching messages.
const (
	ErrKindOverload   = "overload"    // admission control shed the request
	ErrKindDeadline   = "deadline"    // request deadline expired
	ErrKindCanceled   = "canceled"    // client disconnected mid-run
	ErrKindBadRequest = "bad_request" // malformed/unknown spec
	ErrKindInternal   = "internal"    // retries exhausted or unexpected failure
)

// RunSpec is the run a request names. It is an alias of runspec.Spec,
// kept so clients can build requests from this package alone.
type RunSpec = runspec.Spec

// Request is one client message. The protocol is one request per
// connection: the client dials, sends a Request, reads one Response. A
// closed connection before the response is the cancellation signal.
type Request struct {
	Op string `json:"op"` // "run" | "health" | "ping"

	Spec RunSpec `json:"spec,omitempty"`
	// DeadlineMs bounds the run (0 = daemon default). On expiry queued
	// sweep points are abandoned and the client gets ErrKindDeadline.
	DeadlineMs int64 `json:"deadline_ms,omitempty"`
	// NoCache forces recomputation (the artifact is still stored).
	NoCache bool `json:"no_cache,omitempty"`
	// NoDegrade disables the reduced-window preview rung: under overload
	// the request is rejected rather than served degraded.
	NoDegrade bool `json:"no_degrade,omitempty"`
}

// Response is the daemon's single reply.
type Response struct {
	OK      bool   `json:"ok"`
	Err     string `json:"err,omitempty"`
	ErrKind string `json:"err_kind,omitempty"`
	// Cached is true when the artifact came out of the store; Degraded
	// when it is a reduced-window preview served under overload.
	Cached   bool   `json:"cached,omitempty"`
	Degraded bool   `json:"degraded,omitempty"`
	Key      string `json:"key,omitempty"` // store key of the artifact
	// Artifact is the raw internal/report JSON (op "run").
	Artifact []byte `json:"artifact,omitempty"`
	// Health is set for op "health".
	Health *Health `json:"health,omitempty"`
}

// Health is the watchdog surface: liveness plus the daemon.*, farm.* and
// store counters, exactly as obs publishes them.
type Health struct {
	PID      int          `json:"pid"`
	UptimeMs int64        `json:"uptime_ms"`
	Draining bool         `json:"draining"`
	Metrics  obs.Snapshot `json:"metrics"`
	Store    store.Stats  `json:"store"`
}
