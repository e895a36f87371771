// Package lib holds the golden cases of the unused rule: each declaration
// is reported or not as its want comment says.
package lib

import "fmt"

// Dead has no caller anywhere.
func Dead() {} // want "func Dead has no reference outside its own declaration"

// OwnTestOnly is called by lib's own test alone.
func OwnTestOnly() int { return 1 } // want "func OwnTestOnly is referenced only by its own package's tests"

// Limit is read by lib's own test alone.
const Limit = 3 // want "const Limit is referenced only by its own package's tests"

// OtherTestUse is called by another package's test: a cross-package test
// accessor, which cannot move into an export_test.go.
func OtherTestUse() int { return 2 }

// MainOnly is called by the main consumer alone.
func MainOnly() string { return helper() }

func helper() string { return "h" }

func deadHelper() {} // want "func deadHelper has no reference outside its own declaration"

// countdown calls only itself: a reference inside its own declaration.
func countdown(n int) int { // want "func countdown has no reference outside its own declaration"
	if n == 0 {
		return 0
	}
	return countdown(n - 1)
}

// Areaer is the interface the consumer calls Area through.
type Areaer interface{ Area() float64 }

// Shape is reached through interfaces only: Area through Areaer, String
// through fmt.Stringer, Error through error.
type Shape struct{ W, H float64 }

func (s Shape) Area() float64 { return s.W * s.H }

func (s Shape) String() string { return fmt.Sprintf("%gx%g", s.W, s.H) }

func (s Shape) Error() string { return "shape" }

// Perimeter is reached by nothing, though its type is live.
func (s Shape) Perimeter() float64 { return 2 * (s.W + s.H) } // want "method (Shape).Perimeter has no reference"

// Stack is generic; the consumer pushes through an instantiation.
type Stack[T any] struct{ items []T }

func (s *Stack[T]) Push(v T) { s.items = append(s.items, v) }

func (s *Stack[T]) Pop() T { // want "method (*Stack[T]).Pop has no reference"
	v := s.items[len(s.items)-1]
	s.items = s.items[:len(s.items)-1]
	return v
}
