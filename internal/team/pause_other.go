//go:build !amd64 && !arm64

package team

func pause() {}
