//go:build race

package main

// The race detector slows the fleet several times over, so the open
// loops cannot keep their rates; the smoke test then skips the load
// proofs and checks everything else.
func init() { raceDetector = true }
