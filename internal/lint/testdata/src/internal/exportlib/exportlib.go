// Package exportlib seeds unused exports for the unusedexport tests. Its
// import path puts it under internal/, so the pass checks it;
// exportuser is its only non-test user.
package exportlib

import "fmt"

// Used is called from exportuser.
func Used() int { return helper() }

// helper is unexported: the pass never reports it.
func helper() int { return 1 }

// Unused calls only itself: recursion is not a use.
func Unused(n int) int { // want "exportlib\.Unused is exported but no non-test code in the module uses it"
	if n == 0 {
		return 0
	}
	return Unused(n - 1)
}

// Dead is named only by its own method's receiver.
type Dead struct{} // want "exportlib\.Dead is exported"

// Method has no caller.
func (Dead) Method() {} // want "exportlib\.\(Dead\)\.Method is exported"

// Limit is a constant nothing reads.
const Limit = 3 // want "exportlib\.Limit is exported"

// Counter is a variable nothing reads.
var Counter int // want "exportlib\.Counter is exported"

// Widget is built by exportuser.
type Widget struct{ n int }

// Spin is reached only through the interface exportuser calls it by.
func (w *Widget) Spin() int { return w.n }

// Orphan has the receiver of a used type but no caller of its own.
func (w *Widget) Orphan() {} // want "exportlib\.\(Widget\)\.Orphan is exported"

// String is found by fmt through an any, which no call site names.
func (w *Widget) String() string { return fmt.Sprint(w.n) }

// Seam is a waived test seam.
//
//lint:allow unusedexport fault-injection seam of the fixture's own tests
func Seam() {}

// A declaration's doc waives every name it declares.
//
//lint:allow unusedexport the enum's tail waits for a later reader
const (
	First = iota
	Second
)
