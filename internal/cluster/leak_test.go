package cluster

import (
	"bytes"
	"fmt"
	"os"
	"runtime"
	"testing"
	"time"
)

// TestMain fails the package's run when goroutines of this module outlive
// its tests: a stage, server or connection some test left running.
func TestMain(m *testing.M) {
	code := m.Run()
	if code == 0 {
		if leaked := leakedGoroutines(); len(leaked) > 0 {
			fmt.Fprintf(os.Stderr, "goroutines outlived the tests:\n\n%s\n", bytes.Join(leaked, []byte("\n\n")))
			code = 1
		}
	}
	os.Exit(code)
}

// leakedGoroutines returns the stacks of every other goroutine running
// this module's code, once none remain or after a grace period for
// goroutines that are still winding down.
func leakedGoroutines() [][]byte {
	var leaked [][]byte
	for deadline := time.Now().Add(5 * time.Second); ; time.Sleep(10 * time.Millisecond) {
		buf := make([]byte, 1<<20)
		buf = buf[:runtime.Stack(buf, true)]
		leaked = leaked[:0]
		for _, g := range bytes.Split(buf, []byte("\n\n"))[1:] { // [0] is this goroutine
			if bytes.Contains(g, []byte("repro/")) {
				leaked = append(leaked, g)
			}
		}
		if len(leaked) == 0 || time.Now().After(deadline) {
			return leaked
		}
	}
}
