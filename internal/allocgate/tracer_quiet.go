//go:build !race && amd64

package allocgate

const tracerAllocates = false
