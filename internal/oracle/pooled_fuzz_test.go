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

// pooledSeedSources aim at the warm-session snapshot machinery's hard
// cases: heavy static initializers (the state a snapshot freezes),
// statics that alias one heap object (the cloner must preserve the
// aliasing, not duplicate the object), init-time output (replayed onto
// clones), object identity fixed during init (clones must preserve ids
// and the id cursor), initializers that die on a budget or an uncaught
// exception (no snapshot may form), and mains that mutate the statics a
// clone inherited.
var pooledSeedSources = map[string]string{
	"init_table": `
class Warm {
    static int[] table = Warm.build();
    static int[] build() {
        int[] t = new int[256];
        for (int i = 0; i < 256; i++) {
            t[i] = i * i % 8191;
        }
        return t;
    }
    static void main() {
        System.out.println(Warm.table[100] + Warm.table[255]);
    }
}`,
	"init_aliased_statics": `
class Share {
    static int[] a = Share.mk();
    static int[] b = Share.a;
    static int[] mk() {
        int[] t = new int[8];
        t[0] = 7;
        return t;
    }
    static void main() {
        Share.a[0] = Share.a[0] + 1;
        System.out.println(Share.b[0]);
    }
}`,
	"init_prints": `
class Chatty {
    static int x = Chatty.announce();
    static int announce() {
        System.out.println("init ran");
        return 41;
    }
    static void main() {
        System.out.println(Chatty.x + 1);
    }
}`,
	"init_object_identity": `
class Node {
    Node next;
}
class Ring {
    static Node head = Ring.mk();
    static Node mk() {
        Node a = new Node();
        Node b = new Node();
        a.next = b;
        b.next = a;
        return a;
    }
    static void main() {
        Node fresh = new Node();
        System.out.println(Ring.head == Ring.head.next.next);
        System.out.println(fresh == Ring.head);
    }
}`,
	"init_throws": `
class Boom {
    static int x = Boom.blow();
    static int blow() {
        throw new Exception("static init exploded");
    }
    static void main() {
        System.out.println(Boom.x);
    }
}`,
	"init_step_kill": `
class Grind {
    static long total = Grind.spin();
    static long spin() {
        long s = 0L;
        int i = 0;
        while (i < 1000000000) {
            s = s + (i % 7);
            i = i + 1;
        }
        return s;
    }
    static void main() {
        System.out.println(Grind.total);
    }
}`,
	"main_mutates_statics": `
class Counter {
    static int n = 100;
    static int[] log = new int[4];
    static void main() {
        for (int i = 0; i < 4; i++) {
            Counter.n = Counter.n + i;
            Counter.log[i] = Counter.n;
        }
        System.out.println(Counter.n + " " + Counter.log[3]);
    }
}`,
}

// pooledSeedModules compiles every pooled seed (plus generated fuzz
// programs), optimized and not, into wire bytes.
func pooledSeedModules(f *testing.F) [][]byte {
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
	names := make([]string, 0, len(pooledSeedSources))
	for name := range pooledSeedSources {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		add(map[string]string{"Main.tj": pooledSeedSources[name]})
	}
	for _, seed := range []string{"p0", "p1"} {
		add(corpus.GenerateFuzz(seed, 4, 3))
	}
	return seeds
}

// FuzzPooledDifferential fuzzes the warm-session-pool soundness oracle:
// for every byte string that passes wire admission, a session cloned
// from a post-static-init snapshot must be byte-exact with a fresh
// session (output, error, kill reason, budget drain, heap checksum) on
// both engines, and snapshots must pass their publish-time
// self-verification. Run by CI as a fuzz-smoke job and, through the
// checked-in testdata/fuzz corpus, on every plain `go test`.
func FuzzPooledDifferential(f *testing.F) {
	for _, s := range pooledSeedModules(f) {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) > 1<<16 {
			t.Skip("oversized input")
		}
		if err := oracle.PooledDifferential(data, fuzzBudgets); err != nil {
			t.Fatal(err)
		}
	})
}

// TestWritePooledSeedCorpus regenerates the checked-in seed corpus under
// testdata/fuzz/FuzzPooledDifferential. Set SAFETSA_WRITE_SEEDS=1 to
// rewrite the files after changing the seed programs or the wire format.
func TestWritePooledSeedCorpus(t *testing.T) {
	if os.Getenv("SAFETSA_WRITE_SEEDS") == "" {
		t.Skip("set SAFETSA_WRITE_SEEDS=1 to regenerate the seed corpus")
	}
	dir := filepath.Join("testdata", "fuzz", "FuzzPooledDifferential")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		t.Fatal(err)
	}
	names := make([]string, 0, len(pooledSeedSources))
	for name := range pooledSeedSources {
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
		mod, err := driver.CompileTSASource(map[string]string{"Main.tj": pooledSeedSources[name]})
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

// TestPooledDifferentialSeeds replays the seed set directly, so the
// pooled-vs-fresh parity claims — including the init-killed and
// init-throwing cases where no snapshot may form — hold in every
// ordinary test run, not only under -fuzz.
func TestPooledDifferentialSeeds(t *testing.T) {
	for name, src := range pooledSeedSources {
		t.Run(name, func(t *testing.T) {
			mod, err := driver.CompileTSASource(map[string]string{"Main.tj": src})
			if err != nil {
				t.Fatal(err)
			}
			if err := oracle.PooledDifferential(wire.EncodeModule(mod), fuzzBudgets); err != nil {
				t.Fatal(err)
			}
			if _, err := driver.OptimizeModule(mod); err != nil {
				t.Fatal(err)
			}
			if err := oracle.PooledDifferential(wire.EncodeModule(mod), fuzzBudgets); err != nil {
				t.Fatal(err)
			}
		})
	}
}

// TestPooledParityCorpusSweep holds the pooled-session oracle over the
// whole paper corpus on both engines: every corpus unit, optimized
// and not, must serve byte-exact clones.
func TestPooledParityCorpusSweep(t *testing.T) {
	budgets := oracle.Budgets{MaxSteps: 1 << 22, MaxAlloc: 1 << 24}
	for _, u := range corpus.Units() {
		t.Run(u.Name, func(t *testing.T) {
			mod, err := driver.CompileTSASource(u.Files)
			if err != nil {
				t.Fatal(err)
			}
			if err := oracle.PooledDifferential(wire.EncodeModule(mod), budgets); err != nil {
				t.Fatal(err)
			}
			if _, err := driver.OptimizeModule(mod); err != nil {
				t.Fatal(err)
			}
			if err := oracle.PooledDifferential(wire.EncodeModule(mod), budgets); err != nil {
				t.Fatal(err)
			}
		})
	}
}
