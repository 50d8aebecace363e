// Package leakcheck fails a package's tests when they leave goroutines
// running in this module's code. Only tests import it; a package installs
// it from its TestMain:
//
//	func TestMain(m *testing.M) { leakcheck.Main(m) }
//
// The analyzer leakygo checks that a goroutine has a way out; this checks,
// after the tests have run, that every goroutine took it.
package leakcheck

import (
	"fmt"
	"os"
	"runtime"
	"strings"
	"testing"
	"time"
)

// module prefixes every function of this module in a stack dump.
const module = "bitdew/"

// settle bounds the wait for goroutines that are on their way out, such as
// a client's read loop whose connection a test has just closed.
const settle = 10 * time.Second

// Main runs the tests and, when they pass, waits for every goroutine with a
// frame in this module's code to end. If one outlives the wait, it prints
// the stack of each and exits non-zero.
func Main(m *testing.M) {
	code := m.Run()
	if code == 0 {
		if leaked := wait(); len(leaked) > 0 {
			fmt.Fprintf(os.Stderr, "leakcheck: %d goroutines still running in %s code %v after the tests:\n\n%s\n",
				len(leaked), module, settle, strings.Join(leaked, "\n\n"))
			code = 1
		}
	}
	os.Exit(code)
}

// wait polls the goroutines until none of this module's is left, or until
// settle has passed; it returns the stacks of those left.
func wait() []string {
	end := time.Now().Add(settle)
	for {
		leaked := running()
		if len(leaked) == 0 || time.Now().After(end) {
			return leaked
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// running returns the stack of every goroutine but the caller's that has a
// frame in this module's code.
func running() []string {
	buf := make([]byte, 1<<16)
	for {
		n := runtime.Stack(buf, true)
		if n < len(buf) {
			buf = buf[:n]
			break
		}
		buf = make([]byte, 2*len(buf))
	}
	var out []string
	// The dump separates goroutines by a blank line, the caller's first.
	for _, g := range strings.Split(string(buf), "\n\n")[1:] {
		for _, line := range strings.Split(g, "\n") {
			if strings.HasPrefix(line, module) {
				out = append(out, g)
				break
			}
		}
	}
	return out
}
