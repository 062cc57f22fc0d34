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

// compiledSeedSources are hand-written programs aimed at the lowering's
// and the closure compiler's hard cases: operands resolved across deep
// dominator chains, phi-heavy loop nests, exception edges whose phi
// moves are baked into call and throw thunks (including rethrow across
// frames), virtual dispatch re-resolved inside a fused call,
// parallel-move swaps on branch thunks, the evalPrim fallback tail
// (string building), and programs that die on the step or allocation
// budget mid-loop so the two engines' kill points must coincide
// exactly.
var compiledSeedSources = map[string]string{
	"deep_dominator_chain": `
class Main {
    static void main() {
        int a = 1;
        if (a > 0) {
            int b = a + 1;
            if (b > 1) {
                int c = b * 2;
                if (c > 3) {
                    int d = c - a;
                    if (d > 2) {
                        int e = d * b;
                        if (e > 5) {
                            System.out.println(a + b + c + d + e);
                        }
                    }
                }
            }
        }
    }
}`,
	"phi_heavy_loops": `
class Main {
    static void main() {
        int a = 0;
        int b = 1;
        int s = 0;
        for (int i = 0; i < 25; i++) {
            int t = a + b;
            a = b;
            b = t;
            int j = 0;
            while (j < 3) {
                s = s + (t % 7);
                j = j + 1;
            }
        }
        System.out.println(a);
        System.out.println(s);
    }
}`,
	"budget_kill_steps": `
class Main {
    static void main() {
        int i = 0;
        long s = 0L;
        while (i >= 0) {
            s = s + i;
            i = i + 1;
            if (i > 1000000000) { i = 0; }
        }
        System.out.println(s);
    }
}`,
	"budget_kill_allocs": `
class Main {
    static void main() {
        int i = 0;
        while (i < 1000000000) {
            int[] a = new int[64];
            a[0] = i;
            i = i + a.length;
        }
        System.out.println(i);
    }
}`,
	"exceptions_across_frames": `
class Main {
    static int depth(int n) {
        if (n == 0) { throw new Exception("bottom"); }
        try {
            return depth(n - 1);
        } catch (Exception e) {
            if (n % 3 == 0) { throw new Exception("re" + n); }
            return n;
        }
    }
    static void main() {
        try {
            System.out.println(depth(10));
        } catch (Exception e) {
            System.out.println("top " + e.getMessage());
        }
        int d = 0;
        try {
            System.out.println(10 / d);
        } catch (Exception e) {
            System.out.println("div " + e.getMessage());
        }
    }
}`,
	"dispatch_chain": `
class A {
    int f() { return 1; }
}
class B extends A {
    int f() { return 2; }
}
class C extends B {
    int f() { return 3; }
}
class Main {
    static int sum(A a, int n) {
        int s = 0;
        for (int i = 0; i < n; i++) {
            s = s + a.f();
        }
        return s;
    }
    static void main() {
        System.out.println(sum(new A(), 5) + sum(new B(), 5) + sum(new C(), 5));
    }
}`,
	"exception_edges_in_calls": `
class Main {
    static int risky(int n) {
        if (n % 4 == 0) { throw new Exception("mod4 " + n); }
        int d = n % 3;
        return 100 / d;
    }
    static void main() {
        int total = 0;
        for (int i = 1; i < 14; i++) {
            int got = 0;
            try {
                got = risky(i);
            } catch (Exception e) {
                got = i;
            }
            total = total + got;
        }
        System.out.println(total);
        try {
            Exception boom = null;
            throw boom;
        } catch (Exception e) {
            System.out.println("null " + e.getMessage());
        }
    }
}`,
	"phi_swap_branches": `
class Main {
    static void main() {
        int a = 1;
        int b = 100;
        int i = 0;
        while (i < 17) {
            int t = a;
            a = b;
            b = t;
            if (i % 2 == 0) { a = a + 1; } else { b = b - 1; }
            i = i + 1;
        }
        System.out.println(a);
        System.out.println(b);
    }
}`,
	"string_fallback_tail": `
class Main {
    static void main() {
        String s = "x";
        double d = 0.5;
        for (int i = 0; i < 6; i++) {
            s = s + i + ":" + (d * i) + ";";
        }
        System.out.println(s);
        System.out.println(s.length());
        System.out.println(s.indexOf("3:"));
    }
}`,
	"compiled_step_kill": `
class Main {
    static void main() {
        int i = 0;
        long s = 0L;
        while (i >= 0) {
            s = s + (i % 13);
            i = i + 1;
            if (i > 1000000000) { i = 0; }
        }
        System.out.println(s);
    }
}`,
	"compiled_alloc_kill": `
class Main {
    static void main() {
        int i = 0;
        String s = "a";
        while (i < 1000000000) {
            s = s + s;
            i = i + 1;
        }
        System.out.println(i);
    }
}`,
}

// fuzzBudgets is deliberately small: the budget-kill seeds must die on
// budget with room to spare inside the 30s CI smoke window.
var fuzzBudgets = oracle.Budgets{MaxSteps: 1 << 16, MaxAlloc: 1 << 18}

// compiledSeedNames is compiledSeedSources' keys in a fixed order.
func compiledSeedNames() []string {
	names := make([]string, 0, len(compiledSeedSources))
	for name := range compiledSeedSources {
		names = append(names, name)
	}
	sort.Strings(names)
	return names
}

// compiledSeedModules compiles every seed program (and a few generated
// fuzz programs), optimized and not, into wire bytes.
func compiledSeedModules(f *testing.F) [][]byte {
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
	for _, name := range compiledSeedNames() {
		add(map[string]string{"Main.tj": compiledSeedSources[name]})
	}
	for _, seed := range []string{"p0", "p1", "c0", "c1"} {
		add(corpus.GenerateFuzz(seed, 4, 3))
	}
	return seeds
}

// FuzzCompiledDifferential fuzzes the engine equivalence oracle: every
// byte string that passes wire admission must behave identically on the
// reference evaluator and the closure-threaded compiled engine (output,
// error, kill reason, budget drain, heap checksum). Run by CI both as a 30s
// fuzz-smoke job and, through the checked-in testdata/fuzz corpus, on
// every plain `go test`.
func FuzzCompiledDifferential(f *testing.F) {
	for _, s := range compiledSeedModules(f) {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) > 1<<16 {
			t.Skip("oversized input")
		}
		if err := oracle.EngineDifferential(data, fuzzBudgets); err != nil {
			t.Fatal(err)
		}
	})
}

// TestWriteCompiledSeedCorpus regenerates the checked-in seed corpora
// under testdata/fuzz/FuzzCompiledDifferential and
// testdata/fuzz/FuzzPreparedDifferential (replayed by every plain
// `go test` run). Set SAFETSA_WRITE_SEEDS=1 to rewrite the files after
// changing the seed programs or the wire format.
func TestWriteCompiledSeedCorpus(t *testing.T) {
	if os.Getenv("SAFETSA_WRITE_SEEDS") == "" {
		t.Skip("set SAFETSA_WRITE_SEEDS=1 to regenerate the seed corpus")
	}
	for target, names := range map[string][]string{
		"FuzzCompiledDifferential": compiledSeedNames(),
		"FuzzPreparedDifferential": preparedSeedNames,
	} {
		dir := filepath.Join("testdata", "fuzz", target)
		if err := os.MkdirAll(dir, 0o755); err != nil {
			t.Fatal(err)
		}
		write := func(name string, data []byte) {
			body := fmt.Sprintf("go test fuzz v1\n[]byte(%q)\n", data)
			if err := os.WriteFile(filepath.Join(dir, name), []byte(body), 0o644); err != nil {
				t.Fatal(err)
			}
		}
		for _, name := range names {
			mod, err := driver.CompileTSASource(map[string]string{"Main.tj": compiledSeedSources[name]})
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
}

// TestCompiledDifferentialSeeds replays the seed set directly (without
// the fuzz driver), so the engine equivalence claims — including the
// mid-run step-kill and alloc-kill drain parity of the budget seeds —
// hold in every ordinary test run, not only under -fuzz.
func TestCompiledDifferentialSeeds(t *testing.T) {
	for name, src := range compiledSeedSources {
		t.Run(name, func(t *testing.T) {
			mod, err := driver.CompileTSASource(map[string]string{"Main.tj": src})
			if err != nil {
				t.Fatal(err)
			}
			if err := oracle.EngineDifferential(wire.EncodeModule(mod), fuzzBudgets); err != nil {
				t.Fatal(err)
			}
			if _, err := driver.OptimizeModule(mod); err != nil {
				t.Fatal(err)
			}
			if err := oracle.EngineDifferential(wire.EncodeModule(mod), fuzzBudgets); err != nil {
				t.Fatal(err)
			}
		})
	}
}
