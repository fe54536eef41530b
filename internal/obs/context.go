package obs

import "context"

// spanKey is the context key for the current span.
type spanKey struct{}

// ContextWithSpan returns a context carrying sp, so layers further down
// the call stack (the ingest pipeline, dataset generators) can open
// child spans without threading a *Span parameter through every
// signature. A nil span returns ctx unchanged.
func ContextWithSpan(ctx context.Context, sp *Span) context.Context {
	if sp == nil {
		return ctx
	}
	return context.WithValue(ctx, spanKey{}, sp)
}

// SpanFromContext returns the span carried by ctx, or nil when the
// calling pipeline is untraced. The nil result composes with the rest of
// the package: Child and every other Span method no-op on nil.
func SpanFromContext(ctx context.Context) *Span {
	if ctx == nil {
		return nil
	}
	sp, _ := ctx.Value(spanKey{}).(*Span)
	return sp
}
