//go:build amd64 || arm64

package team

// pause tells the core the caller is in a spin-wait loop (amd64 PAUSE,
// arm64 YIELD), leaving its execution resources to the sibling thread.
func pause()
