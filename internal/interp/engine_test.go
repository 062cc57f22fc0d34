package interp_test

import (
	"bytes"
	"testing"

	"safetsa/internal/core"
	"safetsa/internal/corpus"
	"safetsa/internal/driver"
	"safetsa/internal/interp"
	"safetsa/internal/rt"
)

// sessionResult is everything a guest session can observe or be
// observed by: printed bytes, the Go-level error, drained budget
// counters, and the final reachable-heap checksum.
type sessionResult struct {
	out    string
	err    error
	steps  int64
	allocs int64
	heap   uint64
}

// runSession executes mod once on the requested engine with the given
// budgets. comp is reused across sessions (it is immutable), matching
// how the codeserver shares one compiled form among all /run sessions.
func runSession(t *testing.T, mod *core.Module, comp *interp.Compiled, engine string, maxSteps, maxAlloc int64) sessionResult {
	t.Helper()
	var out bytes.Buffer
	env := &rt.Env{Out: &out, MaxSteps: maxSteps, MaxAlloc: maxAlloc}
	var l *interp.Loader
	var err error
	switch engine {
	case driver.EngineCompiled:
		l, err = interp.LoadTrustedCompiled(mod, comp, env)
	default:
		l, err = interp.LoadTrusted(mod, env)
	}
	res := sessionResult{steps: env.Steps, allocs: env.Allocs}
	if err != nil {
		res.err = err
		res.out = out.String()
		res.steps, res.allocs = env.Steps, env.Allocs
		if l != nil {
			res.heap = l.HeapChecksum()
		}
		return res
	}
	res.err = l.RunMain()
	res.out = out.String()
	res.steps, res.allocs = env.Steps, env.Allocs
	res.heap = l.HeapChecksum()
	return res
}

// compareSessions asserts full observable equality between a reference
// session and a session on the named engine: output bytes, error text,
// cumulative step and alloc budget drain, and the final heap checksum.
func compareSessions(t *testing.T, engine string, ref, got sessionResult) {
	t.Helper()
	if ref.out != got.out {
		t.Errorf("output diverged:\nreference: %q\n%s: %q", ref.out, engine, got.out)
	}
	refErr, gotErr := "", ""
	if ref.err != nil {
		refErr = ref.err.Error()
	}
	if got.err != nil {
		gotErr = got.err.Error()
	}
	if refErr != gotErr {
		t.Errorf("error diverged:\nreference: %q\n%s: %q", refErr, engine, gotErr)
	}
	if ref.err != nil {
		if rk, gk := rt.KillReason(ref.err), rt.KillReason(got.err); rk != gk {
			t.Errorf("kill reason diverged: reference %q, %s %q", rk, engine, gk)
		}
	}
	if ref.steps != got.steps {
		t.Errorf("step drain diverged: reference %d, %s %d", ref.steps, engine, got.steps)
	}
	if ref.allocs != got.allocs {
		t.Errorf("alloc drain diverged: reference %d, %s %d", ref.allocs, engine, got.allocs)
	}
	if ref.heap != got.heap {
		t.Errorf("heap checksum diverged: reference %#x, %s %#x", ref.heap, engine, got.heap)
	}
}

// excStormSrc is a dedicated exception-heavy row for the engine
// differential: every trap kind the runtime can raise (arithmetic,
// bounds, null, explicit throw), caught at varying depths, plus
// rethrow across recursive frames — so the exception-edge phi moves and
// the protected-call recovery paths of both engines are compared under
// full budgets and under mid-run kills.
const excStormSrc = `
class ExcStorm {
    int depth;

    ExcStorm(int d) { depth = d; }

    static int divTrap(int a, int b) {
        try {
            return a / b;
        } catch (ArithmeticException e) {
            return a - b;
        }
    }

    static int deep(int n) {
        if (n == 0) { throw new Exception("bottom"); }
        try {
            return deep(n - 1);
        } catch (Exception e) {
            if (n % 3 == 0) { throw new Exception("re" + n); }
            return n;
        }
    }

    static int bounds(int[] a, int i) {
        try {
            return a[i];
        } catch (IndexOutOfBoundsException e) {
            return -1;
        }
    }

    static int nullTrap(ExcStorm s) {
        try {
            return s.depth;
        } catch (NullPointerException e) {
            return -7;
        }
    }

    static void main() {
        int acc = 0;
        for (int i = 0; i < 200; i++) {
            acc += divTrap(1000 + i, i % 7);
            try {
                acc += deep(i % 13);
            } catch (Exception e) {
                acc += e.getMessage().length();
            }
            int[] arr = new int[8];
            arr[i % 8] = i;
            acc += bounds(arr, i % 11);
            ExcStorm s = null;
            if (i % 2 == 0) { s = new ExcStorm(i); }
            acc += nullTrap(s);
            try {
                if (i % 5 == 0) { throw new Exception("x" + i); }
                acc += 3;
            } catch (Exception e) {
                acc += e.getMessage().length();
            }
        }
        System.out.println(acc);
    }
}
`

// excDieSrc terminates main with an uncaught exception after real work,
// so the engines are also compared on the unwind-out-of-main path: the
// error text, the budget drained before the throw, and the heap left
// behind must all match.
const excDieSrc = `
class ExcDie {
    static int burn(int n) {
        int acc = 0;
        for (int i = 0; i < n; i++) {
            try {
                if (i % 3 == 1) { throw new Exception("t" + i); }
                acc += i;
            } catch (Exception e) {
                acc -= 1;
            }
        }
        return acc;
    }

    static void main() {
        System.out.println(burn(100));
        throw new Exception("unhandled " + burn(50));
    }
}
`

// TestEngineParityExceptionHeavy is the satellite coverage for the
// exception-heavy rows: both programs above run on both engines under
// a full budget, a step budget at half the real drain, and an
// alloc budget at half the real drain, with every observable compared
// byte-exactly (output, error text, kill reason, budget drain, heap
// checksum).
func TestEngineParityExceptionHeavy(t *testing.T) {
	cases := []struct {
		name, file, src string
		wantErr         bool
	}{
		{"ExcStorm", "ExcStorm.tj", excStormSrc, false},
		{"ExcDie", "ExcDie.tj", excDieSrc, true},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			mod, err := driver.CompileTSASource(map[string]string{c.file: c.src})
			if err != nil {
				t.Fatalf("compile: %v", err)
			}
			prep, err := interp.Prepare(mod)
			if err != nil {
				t.Fatalf("prepare: %v", err)
			}
			comp, err := interp.Compile(mod, prep)
			if err != nil {
				t.Fatalf("compile backend: %v", err)
			}

			const full = 50_000_000
			ref := runSession(t, mod, comp, driver.EngineReference, full, full)
			compareSessions(t, driver.EngineCompiled,
				ref, runSession(t, mod, comp, driver.EngineCompiled, full, full))
			if c.wantErr && ref.err == nil {
				t.Fatal("expected the guest to die of an uncaught exception")
			}
			if !c.wantErr && ref.err != nil {
				t.Fatalf("guest failed under full budget: %v", ref.err)
			}
			if ref.out == "" {
				t.Fatal("guest printed nothing; the run proves nothing")
			}

			// Mid-run kills: the kill must land on the same instruction in
			// every engine even while unwinding through handlers.
			if half := ref.steps / 2; half > 0 {
				refK := runSession(t, mod, comp, driver.EngineReference, half, full)
				compareSessions(t, driver.EngineCompiled,
					refK, runSession(t, mod, comp, driver.EngineCompiled, half, full))
				if rt.KillReason(refK.err) != "step_limit" {
					t.Errorf("expected a step-limit kill at %d steps, got %v", half, refK.err)
				}
			}
			if half := ref.allocs / 2; half > 0 {
				refK := runSession(t, mod, comp, driver.EngineReference, full, half)
				compareSessions(t, driver.EngineCompiled,
					refK, runSession(t, mod, comp, driver.EngineCompiled, full, half))
				if rt.KillReason(refK.err) != "alloc_limit" {
					t.Errorf("expected an alloc-limit kill at %d allocs, got %v", half, refK.err)
				}
			}
		})
	}
}

// TestEngineParityCorpus is the budget-parity property test over the
// full corpus: for every unit, unoptimized and optimized, the compiled
// engine must drain exactly the same step and alloc budget as the
// reference evaluator, print the same bytes, and leave an identical
// reachable heap. Each unit is then re-run under a step budget set to
// half its full drain and an alloc budget set to half its full drain,
// so the budget-kill paths of both engines are compared too — the
// guest-kill metrics must not shift between the oracle and the served
// engine.
func TestEngineParityCorpus(t *testing.T) {
	for _, u := range corpus.Units() {
		u := u
		t.Run(u.Name, func(t *testing.T) {
			for _, optimize := range []bool{false, true} {
				name := "unopt"
				if optimize {
					name = "opt"
				}
				t.Run(name, func(t *testing.T) {
					mod, err := driver.CompileTSASource(u.Files)
					if err != nil {
						t.Fatalf("compile: %v", err)
					}
					if optimize {
						if _, err := driver.OptimizeModule(mod); err != nil {
							t.Fatalf("optimize: %v", err)
						}
					}
					prep, err := interp.Prepare(mod)
					if err != nil {
						t.Fatalf("prepare: %v", err)
					}
					comp, err := interp.Compile(mod, prep)
					if err != nil {
						t.Fatalf("compile backend: %v", err)
					}

					const full = 50_000_000
					ref := runSession(t, mod, comp, driver.EngineReference, full, full)
					cmp := runSession(t, mod, comp, driver.EngineCompiled, full, full)
					compareSessions(t, driver.EngineCompiled, ref, cmp)
					if ref.err != nil {
						t.Fatalf("corpus unit failed under full budget: %v", ref.err)
					}

					// Step-kill parity at half the real drain.
					if half := ref.steps / 2; half > 0 {
						refK := runSession(t, mod, comp, driver.EngineReference, half, full)
						cmpK := runSession(t, mod, comp, driver.EngineCompiled, half, full)
						compareSessions(t, driver.EngineCompiled, refK, cmpK)
						if rt.KillReason(refK.err) != "step_limit" {
							t.Errorf("expected a step-limit kill at %d steps, got %v", half, refK.err)
						}
					}

					// Alloc-kill parity at half the real drain.
					if half := ref.allocs / 2; half > 0 {
						refK := runSession(t, mod, comp, driver.EngineReference, full, half)
						cmpK := runSession(t, mod, comp, driver.EngineCompiled, full, half)
						compareSessions(t, driver.EngineCompiled, refK, cmpK)
						if rt.KillReason(refK.err) != "alloc_limit" {
							t.Errorf("expected an alloc-limit kill at %d allocs, got %v", half, refK.err)
						}
					}
				})
			}
		})
	}
}
