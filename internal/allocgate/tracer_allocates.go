//go:build race || !amd64

package allocgate

// tracerAllocates marks a build whose runtime heap-allocates while the
// Go execution tracer runs (see Measure): measured on go1.24 under the
// race detector and on 386, and assumed off amd64.
const tracerAllocates = true
