// Optional runtime/trace integration: when the process is being traced
// with the Go execution tracer (go test -trace), benchmark runs are
// annotated as runtime/trace tasks and parallel regions as runtime/trace
// regions,
// so `go tool trace` shows NPB phases on the same timeline as the
// scheduler's goroutine view — where a thread-placement anomaly like
// the paper's §5.2 actually lives. When the Go tracer is off both
// helpers reduce to one atomic load.
package trace

import (
	"context"
	rt "runtime/trace"
)

func noop() {}

// StartTask opens a runtime/trace task for one benchmark run (name is
// the cell, e.g. "LU.S.t4") and returns the task context and an end
// function. A no-op unless Go execution tracing is active.
func StartTask(ctx context.Context, name string) (context.Context, func()) {
	if !rt.IsEnabled() {
		return ctx, noop
	}
	ctx, task := rt.NewTask(ctx, name)
	return ctx, task.End
}

// StartRegion opens a runtime/trace region on the calling goroutine
// and returns its end function; begin and end must happen on the same
// goroutine. A no-op unless Go execution tracing is active.
func StartRegion(name string) func() {
	if !rt.IsEnabled() {
		return noop
	}
	return rt.StartRegion(context.Background(), name).End
}
