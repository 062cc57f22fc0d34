package interp

import (
	"bytes"
	"testing"

	"safetsa/internal/core"
	"safetsa/internal/lang/ast"
	"safetsa/internal/lang/parser"
	"safetsa/internal/lang/sema"
	"safetsa/internal/rt"
	"safetsa/internal/ssabuild"
)

// deferredSrc has static initializers that allocate and print, and a
// main that loops, allocates and prints, so a session's output, budget
// drain and heap all depend on which code the session executes.
const deferredSrc = `
class Main {
    static int[] table = Main.build();

    static int[] build() {
        int[] t = new int[16];
        for (int i = 0; i < t.length; i++) { t[i] = i * i; }
        System.out.println("init " + t.length);
        return t;
    }

    static void main() {
        int acc = 0;
        for (int i = 0; i < 200; i++) {
            int[] box = new int[2];
            box[i % 2] = table[i % 16];
            acc += box[0] + box[1];
        }
        System.out.println(acc);
    }
}`

// buildModule compiles TJ source to a verified module without the
// driver package (which imports this one).
func buildModule(t *testing.T, src string) *core.Module {
	t.Helper()
	f, errs := parser.ParseFile("Main.tj", src)
	if len(errs) > 0 {
		t.Fatalf("parse: %v", errs)
	}
	prog, serrs := sema.Check([]*ast.File{f}...)
	if len(serrs) > 0 {
		t.Fatalf("sema: %v", serrs)
	}
	mod, err := ssabuild.Build(prog)
	if err != nil {
		t.Fatalf("build: %v", err)
	}
	if err := mod.Verify(core.VerifyOptions{}); err != nil {
		t.Fatalf("verify: %v", err)
	}
	return mod
}

// TestLoadTrustedDeferredCompilesPrepared: a caller holding only the
// prepared lowering (LoadTrustedDeferred(mod, prep, nil, env)) gets a
// session bound to the compiled engine, observably identical —
// output, step and alloc drain, heap checksum — to one bound directly
// to Compile's result, and a snapshot taken from it clones onto the
// compiled engine too.
func TestLoadTrustedDeferredCompilesPrepared(t *testing.T) {
	mod := buildModule(t, deferredSrc)
	prep, err := Prepare(mod)
	if err != nil {
		t.Fatalf("prepare: %v", err)
	}
	comp, err := Compile(mod, prep)
	if err != nil {
		t.Fatalf("compile backend: %v", err)
	}

	type result struct {
		out           string
		steps, allocs int64
		heap          uint64
	}
	run := func(prep *Prepared, comp *Compiled) (result, *Loader) {
		t.Helper()
		var out bytes.Buffer
		env := &rt.Env{Out: &out, MaxSteps: 10_000_000}
		l, err := LoadTrustedDeferred(mod, prep, comp, env)
		if err != nil {
			t.Fatalf("load: %v", err)
		}
		if err := l.RunStaticInit(); err != nil {
			t.Fatalf("static init: %v", err)
		}
		if err := l.RunMain(); err != nil {
			t.Fatalf("main: %v", err)
		}
		return result{out.String(), env.Steps, env.Allocs, l.HeapChecksum()}, l
	}

	fromPrep, l := run(prep, nil)
	if l.comp == nil {
		t.Fatal("LoadTrustedDeferred(mod, prep, nil, env) did not bind the compiled engine")
	}
	fromComp, _ := run(nil, comp)
	if fromPrep != fromComp {
		t.Errorf("prep-bound session %+v != comp-bound session %+v", fromPrep, fromComp)
	}
	if fromPrep.out == "" || fromPrep.allocs == 0 {
		t.Fatalf("guest printed or allocated nothing: %+v", fromPrep)
	}

	var out bytes.Buffer
	l, err = LoadTrustedDeferred(mod, prep, nil, &rt.Env{Out: &out})
	if err != nil {
		t.Fatalf("load: %v", err)
	}
	if err := l.RunStaticInit(); err != nil {
		t.Fatalf("static init: %v", err)
	}
	snap, err := l.Snapshot(out.Bytes())
	if err != nil {
		t.Fatalf("snapshot: %v", err)
	}
	clone, err := snap.NewSession(&rt.Env{})
	if err != nil {
		t.Fatalf("clone: %v", err)
	}
	if clone.comp == nil {
		t.Error("a snapshot of a prep-bound session cloned onto the reference walker")
	}
}
