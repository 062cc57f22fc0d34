package opt_test

import (
	"testing"

	"safetsa/internal/core"
	"safetsa/internal/driver"
	"safetsa/internal/opt"
)

func compiled(t *testing.T, src string) *core.Module {
	t.Helper()
	mod, err := driver.CompileTSASource(map[string]string{"Main.tj": src})
	if err != nil {
		t.Fatal(err)
	}
	return mod
}

func countOp(m *core.Module, op core.Op) int {
	n := 0
	for _, f := range m.Funcs {
		for _, b := range f.Blocks {
			b.Instrs(func(in *core.Instr) {
				if in.Op == op {
					n++
				}
			})
		}
	}
	return n
}

const fieldStoreSrc = `
class P { int x; int y; }
class Main {
    static int f(P p, int[] a) {
        int r = p.x + p.x;     // second load merges
        p.y = 1;               // store: kills p.x loads only under field analysis
        r += p.x;
        r += a[0];
        p.y = 2;               // a[0] reload: never killed by a field store
        r += a[0];
        return r;
    }
    static void main() {
        P p = new P();
        p.x = 21;
        int[] a = new int[1];
        a[0] = 100;
        System.out.println(f(p, a));
    }
}`

// TestMemVariableKillsLoads pins the conservative Mem semantics of
// section 8: a store produces a new Mem, so loads across it reload.
func TestMemVariableKillsLoads(t *testing.T) {
	mod := compiled(t, fieldStoreSrc)
	before := countOp(mod, core.OpGetField)
	opt.Optimize(mod)
	after := countOp(mod, core.OpGetField)
	// f has 3 p.x loads: the first pair merges; the store to p.y kills
	// the rest under single-Mem. 3 -> 2.
	if before <= after {
		t.Fatalf("getfield not reduced: %d -> %d", before, after)
	}
	if after < 2 {
		t.Fatalf("conservative Mem merged a load across a store: %d getfields left", after)
	}
}

// TestFieldSensitiveMem checks the paper's future-work extension: with
// the Mem variable partitioned by field, the store to p.y no longer
// kills p.x, and array loads survive field stores.
func TestFieldSensitiveMem(t *testing.T) {
	conservative := compiled(t, fieldStoreSrc)
	opt.Optimize(conservative)
	partitioned := compiled(t, fieldStoreSrc)
	opt.OptimizeWithOptions(partitioned, opt.Options{FieldSensitiveMem: true})

	cLoads := countOp(conservative, core.OpGetField) + countOp(conservative, core.OpGetElt)
	pLoads := countOp(partitioned, core.OpGetField) + countOp(partitioned, core.OpGetElt)
	if pLoads >= cLoads {
		t.Fatalf("field analysis found nothing: %d vs %d loads", pLoads, cLoads)
	}

	// Semantics must be identical.
	want, err := driver.RunModule(conservative, 1_000_000)
	if err != nil {
		t.Fatal(err)
	}
	got, err := driver.RunModule(partitioned, 1_000_000)
	if err != nil {
		t.Fatal(err)
	}
	if got != want {
		t.Fatalf("field-sensitive CSE changed behaviour: %q vs %q", got, want)
	}
}

// TestFieldSensitiveStillKillsSameField: a store to the loaded field must
// still invalidate it.
func TestFieldSensitiveStillKillsSameField(t *testing.T) {
	mod := compiled(t, `
class P { int x; }
class Main {
    static void main() {
        P p = new P();
        p.x = 1;
        int a = p.x;
        p.x = 2;
        int b = p.x;          // must NOT merge with a
        System.out.println(a + " " + b);
    }
}`)
	opt.OptimizeWithOptions(mod, opt.Options{FieldSensitiveMem: true})
	out, err := driver.RunModule(mod, 1_000_000)
	if err != nil {
		t.Fatal(err)
	}
	if out != "1 2\n" {
		t.Fatalf("store-to-load ordering broken: %q", out)
	}
}

// TestCallsKillAllPartitions: a method call conservatively invalidates
// every partition, even under field analysis.
func TestCallsKillAllPartitions(t *testing.T) {
	mod := compiled(t, `
class P { int x; }
class Main {
    static P shared;
    static void mutate() { shared.x = 99; }
    static void main() {
        shared = new P();
        shared.x = 1;
        P p = shared;
        int a = p.x;
        mutate();
        int b = p.x;          // must reload after the call
        System.out.println(a + " " + b);
    }
}`)
	opt.OptimizeWithOptions(mod, opt.Options{FieldSensitiveMem: true})
	out, err := driver.RunModule(mod, 1_000_000)
	if err != nil {
		t.Fatal(err)
	}
	if out != "1 99\n" {
		t.Fatalf("call did not kill memory: %q", out)
	}
}

// TestArrayLenIsPure: array lengths are immutable, so a store between two
// .length reads must not prevent the merge.
func TestArrayLenIsPure(t *testing.T) {
	mod := compiled(t, `
class Main {
    static void main() {
        int[] a = new int[7];
        int x = a.length;
        a[0] = 5;
        int y = a.length;
        System.out.println(x + y);
    }
}`)
	before := countOp(mod, core.OpArrayLen)
	opt.Optimize(mod)
	after := countOp(mod, core.OpArrayLen)
	if before != 2 || after != 1 {
		t.Fatalf("arraylen CSE: %d -> %d, want 2 -> 1", before, after)
	}
}

// TestCheckEliminationRemovesExceptionEdges: when CSE deletes a redundant
// check inside a try, the handler loses the corresponding phi operand and
// the program still runs correctly.
func TestCheckEliminationRemovesExceptionEdges(t *testing.T) {
	src := `
class Main {
    static int f(int[] a, int i) {
        try {
            return a[i] + a[i] + a[i];
        } catch (IndexOutOfBoundsException e) {
            return -1;
        } catch (NullPointerException e) {
            return -2;
        }
    }
    static void main() {
        int[] a = new int[2];
        a[1] = 50;
        System.out.println(f(a, 1));
        System.out.println(f(a, 7));
        System.out.println(f(null, 0));
    }
}`
	mod := compiled(t, src)
	want, err := driver.RunModule(mod, 1_000_000)
	if err != nil {
		t.Fatal(err)
	}
	mod2 := compiled(t, src)
	st := opt.Optimize(mod2)
	if st.ArrayChecksAfter >= st.ArrayChecksBefore {
		t.Fatalf("no array checks eliminated inside try: %d -> %d",
			st.ArrayChecksBefore, st.ArrayChecksAfter)
	}
	if err := mod2.Verify(core.VerifyOptions{}); err != nil {
		t.Fatalf("edges inconsistent after check elimination: %v", err)
	}
	got, err := driver.RunModule(mod2, 1_000_000)
	if err != nil {
		t.Fatal(err)
	}
	if got != want {
		t.Fatalf("behaviour changed: %q vs %q", got, want)
	}
	if want != "150\n-1\n-2\n" {
		t.Fatalf("exception dispatch wrong: %q", want)
	}
}

// TestConstFoldDivideByNonZero: constant folding never folds integer
// division (it may throw), keeping the xprimitive intact.
func TestConstFoldKeepsXPrims(t *testing.T) {
	mod := compiled(t, `
class Main {
    static void main() {
        int z = 0;
        try {
            int x = 10 / z;
            System.out.println(x);
        } catch (ArithmeticException e) {
            System.out.println("caught");
        }
    }
}`)
	opt.Optimize(mod)
	if countOp(mod, core.OpXPrim) == 0 {
		t.Fatal("the potentially-throwing division was folded away")
	}
	out, err := driver.RunModule(mod, 1_000_000)
	if err != nil || out != "caught\n" {
		t.Fatalf("division semantics lost: %q %v", out, err)
	}
}

// TestCSECollapsesPhisItMakesTrivial: CSE merges the two arms' a+b into
// one value, leaving phi(x, x) at the join. The pipeline has no
// constant-propagation round after CSE, so CSE must collapse that phi
// itself or it ships in the unit.
func TestCSECollapsesPhisItMakesTrivial(t *testing.T) {
	mod := compiled(t, `
class Main {
    static int f(int a, int b, boolean p) {
        int x = a + b;
        int y = 0;
        if (p) { y = a + b; } else { y = x; }
        return y * 2;
    }
    static void main() {
        System.out.println(f(3, 4, true) + f(5, 6, false));
    }
}`)
	opt.Optimize(mod)
	if n := countOp(mod, core.OpPhi); n != 0 {
		t.Fatalf("%d phis left after -O, want 0 (the join's phi(x, x) collapses)\n%s", n, mod.Dump())
	}
	out, err := driver.RunModule(mod, 1_000_000)
	if err != nil || out != "36\n" {
		t.Fatalf("output %q %v, want 36", out, err)
	}
}
