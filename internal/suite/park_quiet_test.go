//go:build !race

package suite

const parkAllocates = false
