// Package lib holds one case of each rule of the reachability scan.
package lib

import "fmt"

// Shape is reached through Used, and its String method through
// fmt.Stringer.
type Shape int

// Main reaches Square alone; the scan keeps the whole iota block.
const (
	Circle Shape = iota
	Square
	Triangle
)

func (s Shape) String() string { return fmt.Sprintf("shape %d", int(s)) }

// Sides is a method that no caller and no interface asks for.
func (s Shape) Sides() int { return int(s) + 2 }

// Used is called by main.
func Used() Shape { return Square }

// Namer is reached through Describe.
type Namer interface{ Name() string }

// Real is reached through main, and its Name method through Namer.
type Real struct{}

func (Real) Name() string { return "real" }

// Describe is called by main.
func Describe(n Namer) string { return n.Name() }

// ghost is mentioned only by the blank assertion below.
type ghost struct{}

func (ghost) Name() string { return "ghost" }

var _ Namer = ghost{}

// wrapped is reached through Wrap; errors.Is calls its Unwrap method.
type wrapped struct{ err error }

func (w wrapped) Error() string { return "wrapped: " + w.err.Error() }

func (w wrapped) Unwrap() error { return w.err }

// Wrap is called by main.
func Wrap(err error) error { return wrapped{err} }

// unusedTable is read by nothing, but its initializer runs, so table is
// reached.
var unusedTable = table()

func table() []int { return []int{1, 2, 3} }

// dead has no caller.
func dead() {}

// ping and pong call only each other.
func ping(n int) {
	if n > 0 {
		pong(n - 1)
	}
}

func pong(n int) {
	if n > 0 {
		ping(n - 1)
	}
}
