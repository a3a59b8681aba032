//go:build !linux

package rt

// placement leaves every worker to the operating system's scheduler: thread
// affinity is bound only on Linux (placement_linux.go).
func placement(int) []int { return nil }

// bind is never called, since placement returns nil.
func bind(int) {}
