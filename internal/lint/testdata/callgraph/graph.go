// Package callgraph is the call-graph builder's fixture: static function
// and method calls, calls at go and defer sites, a mutual-recursion cycle,
// and the interface and func-value calls that add no edge.
package callgraph

type speaker interface {
	speak() string
}

type dog struct{}

func (dog) speak() string { return "woof" }

type cat struct{}

func (cat) speak() string { return "meow" }

// robot has a speak with a different signature: not an implementer.
type robot struct{}

func (robot) speak(times int) string { return "beep" }

func leaf() int { return 1 }

func helperA() int { return leaf() }

func helperB(d dog) string { return d.speak() }

// viaInterface dispatches through the interface: no edge.
func viaInterface(s speaker) string { return s.speak() }

// viaFuncValue calls a function value: no edge.
func viaFuncValue(f func() int) int { return f() }

func takeAddr() func() int { return leaf }

// even and odd are mutually recursive.
func even(n int) bool {
	if n == 0 {
		return true
	}
	return odd(n - 1)
}

func odd(n int) bool {
	if n == 0 {
		return false
	}
	return even(n - 1)
}

// launcher has a go site and a defer site.
func launcher() {
	go helperA()
	defer leaf()
	_ = viaInterface(dog{})
}
