// Command safetsarun is the code consumer: it loads a SafeTSA
// distribution unit (decoding it against the context-bounded alphabets,
// which makes ill-formed references inexpressible), runs the residual
// link verification, and executes static main.
//
//	safetsarun [-maxsteps N] unit.tsa
//
// Execution uses the closure-threaded compiled engine (load-time
// lowering to pre-bound thunks), the same engine safetsad serves.
package main

import (
	"context"
	"flag"
	"fmt"
	"os"

	"safetsa/internal/driver"
	"safetsa/internal/wire"
)

func main() {
	maxSteps := flag.Int64("maxsteps", 0, "abort after this many executed instructions (0 = unlimited)")
	flag.Parse()
	if flag.NArg() != 1 {
		fmt.Fprintln(os.Stderr, "usage: safetsarun unit.tsa")
		os.Exit(2)
	}
	data, err := os.ReadFile(flag.Arg(0))
	if err != nil {
		fatal(err)
	}
	mod, err := wire.DecodeModule(data)
	if err != nil {
		fatal(err)
	}
	out, err := driver.RunModuleCompiledContext(context.Background(), mod, *maxSteps)
	fmt.Print(out)
	if err != nil {
		fatal(err)
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "safetsarun:", err)
	os.Exit(1)
}
