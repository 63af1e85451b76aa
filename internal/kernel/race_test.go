//go:build race

package kernel

// raceDetector reports whether the tests run under -race, where sync.Pool
// drops a quarter of its Puts on purpose: a pooled scratch is then
// reallocated every few fills, and a zero-allocation pin on a path that makes
// two pool round trips (the sparse double-miss fill) cannot hold.
const raceDetector = true
