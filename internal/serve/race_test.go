//go:build race

package serve

// raceDetector reports whether the tests run under -race, where sync.Pool
// drops a quarter of its Puts on purpose, so a pooled scratch is remade
// every few calls and an allocation count cannot be pinned.
const raceDetector = true
