//go:build race

package core

// raceDetector reports a -race build, whose sync.Pool drops items.
const raceDetector = true
