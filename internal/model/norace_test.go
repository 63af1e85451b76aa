//go:build !race

package model

const raceDetector = false
