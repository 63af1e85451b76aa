// Package lib is the fixture cmd/deadcode's tests run the gate over.
package lib

// Doer is used by the root module's main.
type Doer interface{ Do() }

// Impl is only ever used as a Doer.
type Impl struct{}

// Do is reached only through Doer.
func (Impl) Do() {}

// Dead has no caller anywhere.
func Dead() { onlyFromDead() }

// onlyFromDead is referenced, but only from Dead.
func onlyFromDead() {}

// TestOnly is referenced only from lib_test.go.
func TestOnly() {}

// FromSecond is referenced only from the second module.
func FromSecond() {}

// Allowed has no caller and is on the allowlist.
func Allowed() {}
