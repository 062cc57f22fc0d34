package oracle_test

import (
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"testing"

	"safetsa/internal/corpus"
	"safetsa/internal/driver"
	"safetsa/internal/oracle"
	"safetsa/internal/wire"
)

// moduleSeedSources aim at the interprocedural pipeline's hard cases:
// branching hierarchies where only class-hierarchy plus rapid-type
// analysis can prove a dispatch monomorphic (and where it must not),
// dispatch-heavy loops through a common root, recursive callees the
// inliner must refuse, small throwing callees whose exception edges get
// stitched into the caller's handlers, and diamonds whose join-point
// checks merge into witness phis.
var moduleSeedSources = map[string]string{
	"branching_hierarchy": `
class Shape { int area() { return 0; } int tag() { return 1; } }
class Square extends Shape {
    int side;
    Square(int s) { side = s; }
    int area() { return side * side; }
}
class Circle extends Shape {
    int r;
    Circle(int r0) { r = r0; }
    int area() { return 3 * r * r; }
}
class Main {
    static void main() {
        Shape a = new Square(4);
        Shape b = new Circle(2);
        System.out.println(a.area() + b.area());
        System.out.println(a.tag() + b.tag());
    }
}`,
	"dispatch_heavy": `
class Cell { int v; int get() { return v; } void put(int x) { v = x; } }
class Main {
    static void main() {
        Cell c = new Cell();
        int total = 0;
        int i = 0;
        while (i < 50) {
            c.put(c.get() + i);
            total = total + c.get();
            i = i + 1;
        }
        System.out.println(total);
    }
}`,
	"uninstantiated_root": `
class Base { int f() { return 0; } }
class Only extends Base { int f() { return 9; } }
class Main {
    static void main() {
        Base b = new Only();
        int s = 0;
        int i = 0;
        while (i < 6) { s = s + b.f(); i = i + 1; }
        System.out.println(s);
    }
}`,
	"recursive_callee": `
class Main {
    static int fib(int n) {
        if (n < 2) { return n; }
        return fib(n - 1) + fib(n - 2);
    }
    static int bounce(int n) { return drop(n - 1); }
    static int drop(int n) { if (n < 1) { return 0; } return bounce(n); }
    static void main() {
        System.out.println(fib(12));
        System.out.println(bounce(5));
    }
}`,
	"throwing_inlinee": `
class Main {
    static int pick(int[] a, int i) { return a[i]; }
    static int div(int a, int b) { return a / b; }
    static void main() {
        int[] a = new int[4];
        a[2] = 12;
        int r = 0;
        try { r = pick(a, 2) + pick(a, 9); } catch (IndexOutOfBoundsException e) { r = -1; }
        System.out.println(r);
        try { r = div(100, 0); } catch (ArithmeticException e) { r = -2; }
        System.out.println(r);
        System.out.println(pick(a, 2) + div(84, 2));
    }
}`,
	"witness_diamond": `
class Main {
    static int f(int[] a, boolean p) {
        int x = 0;
        if (p) { x = a[2]; } else { x = a[2] + 1; }
        return x + a[2];
    }
    static void main() {
        int[] a = new int[5];
        a[2] = 40;
        System.out.println(f(a, true) + f(a, false));
        System.out.println(f(null, true));
    }
}`,
}

// moduleSeedModules compiles every module seed (plus generated fuzz
// programs), intraprocedurally optimized and not, into wire bytes. The
// module-level tier itself is what the fuzz target applies, so its
// output is not a seed.
func moduleSeedModules(f *testing.F) [][]byte {
	f.Helper()
	var seeds [][]byte
	add := func(files map[string]string) {
		mod, err := driver.CompileTSASource(files)
		if err != nil {
			f.Fatal(err)
		}
		seeds = append(seeds, wire.EncodeModule(mod))
		if _, err := driver.OptimizeModule(mod); err != nil {
			f.Fatal(err)
		}
		seeds = append(seeds, wire.EncodeModule(mod))
	}
	names := make([]string, 0, len(moduleSeedSources))
	for name := range moduleSeedSources {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		add(map[string]string{"Main.tj": moduleSeedSources[name]})
	}
	for _, seed := range []string{"m0", "m1"} {
		add(corpus.GenerateFuzz(seed, 4, 3))
	}
	return seeds
}

// FuzzModulePasses fuzzes the interprocedural-optimizer oracle: every
// byte string that passes wire admission must survive the full
// module-level pipeline with the consumer verifier accepting each
// intermediate state, stay in canonical wire form, pass engine
// parity before and after, and — kills aside — print the same bytes,
// fail the same way, and leave the same reachable heap as the
// untransformed module. Run by CI as a fuzz-smoke job and, through the
// checked-in testdata/fuzz corpus, on every plain `go test`.
func FuzzModulePasses(f *testing.F) {
	for _, s := range moduleSeedModules(f) {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) > 1<<16 {
			t.Skip("oversized input")
		}
		if err := oracle.ModuleDifferential(data, fuzzBudgets); err != nil {
			t.Fatal(err)
		}
	})
}

// TestWriteModuleSeedCorpus regenerates the checked-in seed corpus under
// testdata/fuzz/FuzzModulePasses. Set SAFETSA_WRITE_SEEDS=1 to rewrite
// the files after changing the seed programs or the wire format.
func TestWriteModuleSeedCorpus(t *testing.T) {
	if os.Getenv("SAFETSA_WRITE_SEEDS") == "" {
		t.Skip("set SAFETSA_WRITE_SEEDS=1 to regenerate the seed corpus")
	}
	dir := filepath.Join("testdata", "fuzz", "FuzzModulePasses")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		t.Fatal(err)
	}
	names := make([]string, 0, len(moduleSeedSources))
	for name := range moduleSeedSources {
		names = append(names, name)
	}
	sort.Strings(names)
	write := func(name string, data []byte) {
		body := fmt.Sprintf("go test fuzz v1\n[]byte(%q)\n", data)
		if err := os.WriteFile(filepath.Join(dir, name), []byte(body), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	for _, name := range names {
		mod, err := driver.CompileTSASource(map[string]string{"Main.tj": moduleSeedSources[name]})
		if err != nil {
			t.Fatal(err)
		}
		write("seed_"+name, wire.EncodeModule(mod))
		if _, err := driver.OptimizeModule(mod); err != nil {
			t.Fatal(err)
		}
		write("seed_"+name+"_opt", wire.EncodeModule(mod))
	}
}

// TestModuleDifferentialSeeds replays the seed set directly, so the
// interprocedural soundness claims hold in every ordinary test run, not
// only under -fuzz.
func TestModuleDifferentialSeeds(t *testing.T) {
	for name, src := range moduleSeedSources {
		t.Run(name, func(t *testing.T) {
			mod, err := driver.CompileTSASource(map[string]string{"Main.tj": src})
			if err != nil {
				t.Fatal(err)
			}
			if err := oracle.ModuleDifferential(wire.EncodeModule(mod), fuzzBudgets); err != nil {
				t.Fatal(err)
			}
			if _, err := driver.OptimizeModule(mod); err != nil {
				t.Fatal(err)
			}
			if err := oracle.ModuleDifferential(wire.EncodeModule(mod), fuzzBudgets); err != nil {
				t.Fatal(err)
			}
		})
	}
}

// TestModuleParityCorpusSweep holds the interprocedural oracle over the
// whole paper corpus: every unit at every optimizer tier — opt-off,
// intraprocedural, module-level — must pass engine parity, and
// the module-level form must match the opt-off baseline observable for
// observable.
func TestModuleParityCorpusSweep(t *testing.T) {
	budgets := oracle.Budgets{MaxSteps: 1 << 22, MaxAlloc: 1 << 24}
	for _, u := range corpus.Units() {
		t.Run(u.Name, func(t *testing.T) {
			mod, err := driver.CompileTSASource(u.Files)
			if err != nil {
				t.Fatal(err)
			}
			data := wire.EncodeModule(mod)
			// Tier 0 parity, tier 2 per-pass verification + parity,
			// and the tier-0-vs-tier-2 comparison in one oracle call.
			if err := oracle.ModuleDifferential(data, budgets); err != nil {
				t.Fatal(err)
			}
			// Tier 1 (the paper's measured intraprocedural pipeline)
			// through the engine-parity oracle on its own wire bytes.
			if _, err := driver.OptimizeModule(mod); err != nil {
				t.Fatal(err)
			}
			if err := oracle.EngineDifferential(wire.EncodeModule(mod), budgets); err != nil {
				t.Fatal(err)
			}
		})
	}
}
