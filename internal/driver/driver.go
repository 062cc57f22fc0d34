// Package driver wires the compilation pipeline together: TJ source →
// parse → sema → SafeTSA build (→ optimize) → wire encode, plus the
// consumer side (decode → verify → execute). The cmd tools, the bench
// harness, the codeserver pool, and the tests all go through these
// helpers.
//
// Every stage has a context-aware form (FrontendContext, …) used by the
// concurrent codeserver; the plain forms are shorthands bound to
// context.Background(). Errors are tagged with an ErrorKind so servers
// can map user-program faults and pipeline faults to different failure
// classes.
package driver

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"sort"

	"safetsa/internal/bytecode"
	"safetsa/internal/core"
	"safetsa/internal/interp"
	"safetsa/internal/lang/ast"
	"safetsa/internal/lang/parser"
	"safetsa/internal/lang/sema"
	"safetsa/internal/obs"
	"safetsa/internal/opt"
	"safetsa/internal/rt"
	"safetsa/internal/ssabuild"
)

// Frontend parses and checks a set of named TJ sources.
func Frontend(files map[string]string) (*sema.Program, error) {
	return FrontendContext(context.Background(), files)
}

// FrontendContext parses and checks a set of named TJ sources, honoring
// cancellation between files.
func FrontendContext(ctx context.Context, files map[string]string) (*sema.Program, error) {
	names := make([]string, 0, len(files))
	for n := range files {
		names = append(names, n)
	}
	sort.Strings(names)
	var asts []*ast.File
	var errs []error
	_, psp := obs.Start(ctx, "parse")
	for _, n := range names {
		if err := ctx.Err(); err != nil {
			psp.End()
			return nil, err
		}
		f, ferrs := parser.ParseFile(n, files[n])
		errs = append(errs, ferrs...)
		asts = append(asts, f)
	}
	psp.End()
	if len(errs) > 0 {
		return nil, wrapKind(KindParse, fmt.Errorf("parse: %w", errors.Join(errs...)))
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	_, ssp := obs.Start(ctx, "sema")
	prog, serrs := sema.Check(asts...)
	ssp.End()
	if len(serrs) > 0 {
		return nil, wrapKind(KindSema, fmt.Errorf("sema: %w", errors.Join(serrs...)))
	}
	return prog, nil
}

// CompileTSA builds the (unoptimized) SafeTSA module for a program.
func CompileTSA(prog *sema.Program) (*core.Module, error) {
	return CompileTSAContext(context.Background(), prog)
}

// CompileTSAContext builds and verifies the SafeTSA module for a checked
// program. A verifier rejection here is a producer bug, not a user error.
func CompileTSAContext(ctx context.Context, prog *sema.Program) (*core.Module, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	_, bsp := obs.Start(ctx, "build")
	mod, err := ssabuild.Build(prog)
	bsp.End()
	if err != nil {
		return nil, wrapKind(KindInternal, err)
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	_, vsp := obs.Start(ctx, "verify")
	err = mod.Verify(core.VerifyOptions{})
	vsp.End()
	if err != nil {
		return nil, wrapKind(KindInternal, fmt.Errorf("safetsa verifier: %w", err))
	}
	return mod, nil
}

// CompileTSASource is the one-call helper: source text → verified module.
func CompileTSASource(files map[string]string) (*core.Module, error) {
	return CompileTSASourceContext(context.Background(), files)
}

// CompileTSASourceContext is the context-aware form of CompileTSASource.
func CompileTSASourceContext(ctx context.Context, files map[string]string) (*core.Module, error) {
	prog, err := FrontendContext(ctx, files)
	if err != nil {
		return nil, err
	}
	return CompileTSAContext(ctx, prog)
}

// OptimizeModule runs the producer-side optimizer and re-verifies the
// module, returning the optimization statistics.
func OptimizeModule(mod *core.Module) (opt.Stats, error) {
	return OptimizeModuleContext(context.Background(), mod)
}

// OptimizeModuleContext is the context-aware form of OptimizeModule.
func OptimizeModuleContext(ctx context.Context, mod *core.Module) (opt.Stats, error) {
	return OptimizeModuleOptions(ctx, mod, opt.Options{})
}

// OptimizeModuleOptions runs the optimizer tier the options select
// (intraprocedural by default, interprocedural with ModuleLevel) and
// re-verifies the module.
func OptimizeModuleOptions(ctx context.Context, mod *core.Module, o opt.Options) (opt.Stats, error) {
	if err := ctx.Err(); err != nil {
		return opt.Stats{}, err
	}
	_, osp := obs.Start(ctx, "passes")
	st := opt.OptimizeWithOptions(mod, o)
	osp.End()
	_, vsp := obs.Start(ctx, "verify")
	err := mod.Verify(core.VerifyOptions{})
	vsp.End()
	if err != nil {
		return st, wrapKind(KindInternal, fmt.Errorf("safetsa verifier after optimization: %w", err))
	}
	return st, nil
}

// CompileTSASourceOpt compiles and optimizes in one call.
func CompileTSASourceOpt(files map[string]string) (*core.Module, opt.Stats, error) {
	mod, err := CompileTSASource(files)
	if err != nil {
		return nil, opt.Stats{}, err
	}
	st, err := OptimizeModule(mod)
	return mod, st, err
}

// CompileBytecode builds the baseline stack-bytecode program.
func CompileBytecode(prog *sema.Program) (*bytecode.Program, error) {
	return bytecode.Compile(prog)
}

// RunBytecode links and executes a bytecode program's main, returning its
// printed output.
func RunBytecode(p *bytecode.Program, maxSteps int64) (string, error) {
	var out bytes.Buffer
	env := &rt.Env{Out: &out, MaxSteps: maxSteps}
	vm, err := bytecode.NewVM(p, env)
	if err != nil {
		return out.String(), err
	}
	err = vm.RunMain()
	return out.String(), err
}

// Engine names label the two execution engines in oracle and test
// reports: EngineCompiled is the closure-threaded engine every /run
// serves, EngineReference the CST walker kept as the semantic oracle.
const (
	EngineReference = "reference"
	EngineCompiled  = "compiled"
)

// RunModule loads and executes a module's main method, returning its
// printed output. maxSteps bounds execution (0 = unlimited).
func RunModule(mod *core.Module, maxSteps int64) (string, error) {
	return RunModuleContext(context.Background(), mod, maxSteps)
}

// RunModuleContext is the context-aware form of RunModule: cancelling ctx
// interrupts the guest program at the next step-budget check. Load/link
// failures are tagged KindVerify (the unit is at fault); execution
// failures are tagged KindRuntime.
func RunModuleContext(ctx context.Context, mod *core.Module, maxSteps int64) (string, error) {
	var out bytes.Buffer
	env := &rt.Env{Out: &out, MaxSteps: maxSteps, Interrupt: ctx.Done()}
	l, err := interp.Load(mod, env)
	if err != nil {
		return out.String(), wrapKind(KindVerify, err)
	}
	if err := l.RunMain(); err != nil {
		return out.String(), wrapKind(KindRuntime, err)
	}
	return out.String(), nil
}

// RunModuleCompiledContext verifies, prepares, compiles, and executes a
// module on the closure-threaded engine: verifier first, then the
// load-time Prepare pass (under a "prepare" span), the closure-fusing
// Compile pass (under a "compile_backend" span), then a compiled-engine
// session. Cancelling ctx interrupts the guest at the next step-budget
// check.
func RunModuleCompiledContext(ctx context.Context, mod *core.Module, maxSteps int64) (string, error) {
	if err := mod.Verify(core.VerifyOptions{}); err != nil {
		return "", wrapKind(KindVerify, fmt.Errorf("interp: module rejected by verifier: %w", err))
	}
	_, psp := obs.Start(ctx, "prepare")
	prep, err := interp.Prepare(mod)
	psp.End()
	if err != nil {
		return "", wrapKind(KindVerify, err)
	}
	_, csp := obs.Start(ctx, "compile_backend")
	comp, err := interp.Compile(mod, prep)
	csp.End()
	if err != nil {
		return "", wrapKind(KindVerify, err)
	}
	var out bytes.Buffer
	env := &rt.Env{Out: &out, MaxSteps: maxSteps, Interrupt: ctx.Done()}
	l, err := interp.LoadTrustedCompiled(mod, comp, env)
	if err != nil {
		return out.String(), wrapKind(KindVerify, err)
	}
	if err := l.RunMain(); err != nil {
		return out.String(), wrapKind(KindRuntime, err)
	}
	return out.String(), nil
}
