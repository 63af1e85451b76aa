//go:build !race

package kernel

const raceDetector = false
