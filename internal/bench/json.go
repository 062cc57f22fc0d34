package bench

import (
	"encoding/json"
	"fmt"

	"safetsa/internal/obs"
)

// JSONRow is the machine-readable form of one measured corpus row: every
// Figure 5 and Figure 6 cell, measured and paper-reported (-1 marks cells
// the paper leaves out).
type JSONRow struct {
	Name      string `json:"name"`
	Group     string `json:"group"`
	Generated bool   `json:"generated"`

	Measured JSONCells `json:"measured"`
	Paper    JSONCells `json:"paper"`
}

// JSONCells holds the table cells for one source (measured or paper).
type JSONCells struct {
	BytecodeSize   int `json:"bytecode_size"`
	TSASize        int `json:"tsa_size"`
	TSAOptSize     int `json:"tsa_opt_size"`
	BytecodeInstrs int `json:"bytecode_instrs"`
	TSAInstrs      int `json:"tsa_instrs"`
	TSAOptInstrs   int `json:"tsa_opt_instrs"`

	PhiBefore   int `json:"phi_before"`
	PhiAfter    int `json:"phi_after"`
	NullBefore  int `json:"null_before"`
	NullAfter   int `json:"null_after"`
	ArrayBefore int `json:"array_before"`
	ArrayAfter  int `json:"array_after"`
}

// JSONClaim is the machine-readable form of one checked §7/§8 claim.
type JSONClaim struct {
	Claim    string `json:"claim"`
	Paper    string `json:"paper"`
	Measured string `json:"measured"`
	Holds    bool   `json:"holds"`
}

// JSONReport is the full benchtables output as data: the Figure 5/6
// tables, the prose-claim checks, and the per-stage latency summaries,
// for recording BENCH_*.json perf-trajectory snapshots across PRs.
type JSONReport struct {
	Schema string      `json:"schema"`
	Rows   []JSONRow   `json:"rows"`
	Claims []JSONClaim `json:"claims"`
	// Latencies digests the producer/consumer stage histograms measured
	// over the corpus run (count, total, p50/p90/p99 in nanoseconds),
	// keyed by stage: frontend, bytecode, ssabuild, optimize, encode,
	// decode, verify, prepare. Absent when the measurement run was
	// untimed.
	Latencies map[string]obs.LatencySummary `json:"latencies,omitempty"`
	// RunComparison records the reference/compiled execution-latency
	// comparison over the corpus (best-of-K per engine per unit, plus
	// the geomean speedup). Absent when the comparison was not run.
	RunComparison *JSONRunComparison `json:"run_comparison,omitempty"`
	// WarmPool records the warm-session-pool comparison: cold (fresh
	// static init) versus warm (snapshot clone) full-session latency per
	// unit on the compiled engine. Absent when the comparison was not run.
	WarmPool *JSONWarmPool `json:"warm_pool,omitempty"`
	// ModuleOpt records the interprocedural-tier measurement: per-pass
	// instruction-count deltas over the corpus, the new passes' action
	// counts, and the module-vs-intraprocedural run-latency comparison.
	// Absent when the comparison was not run.
	ModuleOpt *JSONModuleOpt `json:"module_opt,omitempty"`
	// Load records a load-generator replay against a running codeserver
	// or fleet (see LoadResult). Absent from benchtables snapshots.
	Load *JSONLoad `json:"load,omitempty"`
	// Wire records the wire-format comparison: per-unit sizes at v1, v2,
	// and v2+dictionary against the bytecode baseline, plus the
	// streaming time-to-first-instruction versus full-decode latency.
	// Absent when the comparison was not run.
	Wire *JSONWire `json:"wire,omitempty"`
}

// JSONWireRow is one unit's wire-format comparison row.
type JSONWireRow struct {
	Name            string `json:"name"`
	Funcs           int    `json:"funcs"`
	BytecodeSize    int    `json:"bytecode_size"`
	V1Size          int    `json:"v1_size"`
	V2Size          int    `json:"v2_size"`
	V2DictSize      int    `json:"v2_dict_size"`
	FullDecodeNanos int64  `json:"full_decode_nanos"`
	TTFINanos       int64  `json:"ttfi_nanos"`
}

// JSONWire is the machine-readable wire-format comparison block. The
// geomean ratios are < 1 when the numerator wins (v2 smaller than v1,
// first instruction before full decode).
type JSONWire struct {
	BestOf              int           `json:"best_of"`
	DictBytes           int           `json:"dict_bytes"`
	Rows                []JSONWireRow `json:"rows"`
	GeomeanV2OverV1     float64       `json:"geomean_v2_over_v1"`
	GeomeanV2DictOverV1 float64       `json:"geomean_v2_dict_over_v1"`
	GeomeanV1OverBC     float64       `json:"geomean_v1_over_bc"`
	GeomeanTTFIOverFull float64       `json:"geomean_ttfi_over_full"`
}

// JSONLoad is the machine-readable load-replay block: the traffic shape
// actually driven and the client-observed latency digest per stage.
type JSONLoad struct {
	Targets        int     `json:"targets"`
	Workers        int     `json:"workers"`
	Units          int     `json:"units"`
	Tenants        int     `json:"tenants"`
	RunFraction    float64 `json:"run_fraction"`
	ZipfS          float64 `json:"zipf_s"`
	ElapsedNanos   int64   `json:"elapsed_nanos"`
	Requests       uint64  `json:"requests"`
	Compiles       uint64  `json:"compiles"`
	CachedCompiles uint64  `json:"cached_compiles"`
	Runs           uint64  `json:"runs"`
	Throttled      uint64  `json:"throttled"`
	Errors         uint64  `json:"errors"`
	// GuestSteps/GuestAllocs total the server-reported budget drain over
	// all accepted runs — compare against the server's guest counters to
	// check budget parity from outside.
	GuestSteps  uint64 `json:"guest_steps"`
	GuestAllocs uint64 `json:"guest_allocs"`
	// ErrorSamples carries the first few failure messages so a red CI
	// run is diagnosable from the archived report alone.
	ErrorSamples []string `json:"error_samples,omitempty"`
	// Latencies digests the client-observed stage histograms ("compile",
	// "run"): count, total, p50/p90/p99 in nanoseconds.
	Latencies map[string]obs.LatencySummary `json:"latencies"`
	// TenantLatencies digests accepted-run latency per tenant identity —
	// the fairness observable the admission gate protects.
	TenantLatencies map[string]obs.LatencySummary `json:"tenant_latencies,omitempty"`
}

// JSONWarmRow is the machine-readable form of one warm-pool row.
// "speedup" is cold-over-warm.
type JSONWarmRow struct {
	Name      string  `json:"name"`
	InitHeavy bool    `json:"init_heavy"`
	InitSteps int64   `json:"init_steps"`
	ColdNanos int64   `json:"cold_nanos"`
	WarmNanos int64   `json:"warm_nanos"`
	Speedup   float64 `json:"speedup"`
}

// JSONWarmPool is the machine-readable warm-session-pool comparison.
type JSONWarmPool struct {
	BestOf                  int           `json:"best_of"`
	Rows                    []JSONWarmRow `json:"rows"`
	GeomeanSpeedup          float64       `json:"geomean_speedup"`
	GeomeanInitHeavySpeedup float64       `json:"geomean_init_heavy_speedup"`
}

// JSONRunRow is the machine-readable form of one engine-comparison row.
// "speedup" is reference-over-compiled.
type JSONRunRow struct {
	Name           string  `json:"name"`
	ReferenceNanos int64   `json:"reference_nanos"`
	CompiledNanos  int64   `json:"compiled_nanos"`
	Speedup        float64 `json:"speedup"`
}

// JSONRunComparison is the machine-readable engine comparison.
type JSONRunComparison struct {
	BestOf         int          `json:"best_of"`
	Rows           []JSONRunRow `json:"rows"`
	GeomeanSpeedup float64      `json:"geomean_speedup"`
}

// JSONPassDelta is one row of the Figure-6-style per-pass block: total
// corpus instruction count entering and leaving one named pass of the
// interprocedural pipeline.
type JSONPassDelta struct {
	Pass         string `json:"pass"`
	InstrsBefore int    `json:"instrs_before"`
	InstrsAfter  int    `json:"instrs_after"`
}

// JSONModuleRunRow is one unit's module-vs-intraprocedural run-latency
// row. "speedup" is intra-over-module.
type JSONModuleRunRow struct {
	Name        string  `json:"name"`
	IntraNanos  int64   `json:"intra_nanos"`
	ModuleNanos int64   `json:"module_nanos"`
	Speedup     float64 `json:"speedup"`
}

// JSONModuleOpt is the machine-readable interprocedural-tier block.
type JSONModuleOpt struct {
	BestOf         int                `json:"best_of"`
	PassDeltas     []JSONPassDelta    `json:"pass_deltas"`
	Devirtualized  int                `json:"devirtualized"`
	Inlined        int                `json:"inlined"`
	ChecksElided   int                `json:"checks_elided"`
	ExcEdgesPruned int                `json:"exc_edges_pruned"`
	Rows           []JSONModuleRunRow `json:"rows"`
	GeomeanSpeedup float64            `json:"geomean_speedup"`
}

// jsonSchema is bumped whenever the report layout changes, so trajectory
// tooling can detect incompatible snapshots. v2 added "latencies"; v3
// added the "prepare" latency stage and "run_comparison"; v4 added the
// "load" replay block emitted by safetsaload; v5 made the run
// comparison three-way (compiled_nanos, compiled_speedup,
// geomean_compiled_speedup) and added overflow_count to every latency
// digest; v6 added the "warm_pool" cold-vs-warm session comparison and
// the load block's multi-tenant fields (tenants, throttled,
// guest_allocs); v7 added the "module_opt" interprocedural-tier block
// (per-pass instruction deltas, devirtualization/inlining/check-
// elimination counts, module-vs-intraprocedural run comparison); v8
// added the "wire" block (v1/v2/v2+dict unit sizes vs the bytecode
// baseline and the streaming time-to-first-instruction comparison); v9
// made the run comparison two-way, because the prepared evaluator was
// deleted: prepared_nanos, compiled_speedup and geomean_compiled_speedup
// are gone, and "speedup"/"geomean_speedup" changed meaning from
// reference-over-prepared to reference-over-compiled.
const jsonSchema = "safetsa-bench-v9"

// Report assembles the machine-readable report from measured rows.
func Report(rows []Row) JSONReport {
	rep := JSONReport{Schema: jsonSchema}
	for _, r := range rows {
		rep.Rows = append(rep.Rows, JSONRow{
			Name:      r.Name,
			Group:     r.Group,
			Generated: r.Generated,
			Measured: JSONCells{
				BytecodeSize:   r.BCSize,
				TSASize:        r.TSASize,
				TSAOptSize:     r.TSAOptSize,
				BytecodeInstrs: r.BCInstrs,
				TSAInstrs:      r.TSAInstrs,
				TSAOptInstrs:   r.TSAOptInstrs,
				PhiBefore:      r.PhiBefore,
				PhiAfter:       r.PhiAfter,
				NullBefore:     r.NullBefore,
				NullAfter:      r.NullAfter,
				ArrayBefore:    r.ArrayBefore,
				ArrayAfter:     r.ArrayAfter,
			},
			Paper: JSONCells{
				BytecodeSize:   r.Paper.BytecodeSize,
				TSASize:        r.Paper.TSASize,
				TSAOptSize:     r.Paper.TSAOptSize,
				BytecodeInstrs: r.Paper.BytecodeInstrs,
				TSAInstrs:      r.Paper.TSAInstrs,
				TSAOptInstrs:   r.Paper.TSAOptInstrs,
				PhiBefore:      r.Paper.PhiBefore,
				PhiAfter:       r.Paper.PhiAfter,
				NullBefore:     r.Paper.NullBefore,
				NullAfter:      r.Paper.NullAfter,
				ArrayBefore:    r.Paper.ArrayBefore,
				ArrayAfter:     r.Paper.ArrayAfter,
			},
		})
	}
	for _, c := range CheckClaims(rows) {
		rep.Claims = append(rep.Claims, JSONClaim{
			Claim: c.Claim, Paper: c.Paper, Measured: c.Measured, Holds: c.Holds,
		})
	}
	return rep
}

// FormatJSON renders the report as indented JSON.
func FormatJSON(rows []Row) ([]byte, error) {
	return json.MarshalIndent(Report(rows), "", "  ")
}

// FormatJSONTimed renders the report including the per-stage latency
// summaries of a timed measurement run and, when non-nil, the
// reference-vs-compiled run comparison, the warm-pool comparison, the
// interprocedural-tier comparison, and the wire-format comparison.
func FormatJSONTimed(rows []Row, tm *StageTimings, rc *RunComparison, wp *WarmPoolComparison, mo *ModuleOptComparison, wc *WireComparison) ([]byte, error) {
	rep := Report(rows)
	if tm != nil {
		rep.Latencies = tm.Summaries()
	}
	if wc != nil {
		jw := &JSONWire{
			BestOf:              wc.BestOf,
			DictBytes:           wc.DictBytes,
			GeomeanV2OverV1:     wc.GeomeanV2OverV1,
			GeomeanV2DictOverV1: wc.GeomeanV2DictOverV1,
			GeomeanV1OverBC:     wc.GeomeanV1OverBC,
			GeomeanTTFIOverFull: wc.GeomeanTTFIOverFull,
		}
		for _, r := range wc.Rows {
			jw.Rows = append(jw.Rows, JSONWireRow{
				Name:            r.Name,
				Funcs:           r.Funcs,
				BytecodeSize:    r.BCSize,
				V1Size:          r.V1Size,
				V2Size:          r.V2Size,
				V2DictSize:      r.V2DictSize,
				FullDecodeNanos: r.FullDecodeNanos,
				TTFINanos:       r.TTFINanos,
			})
		}
		rep.Wire = jw
	}
	if mo != nil {
		jm := &JSONModuleOpt{
			BestOf:         mo.BestOf,
			Devirtualized:  mo.Devirtualized,
			Inlined:        mo.Inlined,
			ChecksElided:   mo.ChecksElided,
			ExcEdgesPruned: mo.ExcEdgesPruned,
			GeomeanSpeedup: mo.GeomeanSpeedup,
		}
		for _, d := range mo.PassDeltas {
			jm.PassDeltas = append(jm.PassDeltas, JSONPassDelta{
				Pass: d.Pass, InstrsBefore: d.InstrsBefore, InstrsAfter: d.InstrsAfter,
			})
		}
		for _, r := range mo.Rows {
			jm.Rows = append(jm.Rows, JSONModuleRunRow{
				Name: r.Name, IntraNanos: r.IntraNanos, ModuleNanos: r.ModuleNanos, Speedup: r.Speedup,
			})
		}
		rep.ModuleOpt = jm
	}
	if wp != nil {
		jw := &JSONWarmPool{
			BestOf:                  wp.BestOf,
			GeomeanSpeedup:          wp.GeomeanSpeedup,
			GeomeanInitHeavySpeedup: wp.GeomeanInitHeavySpeedup,
		}
		for _, r := range wp.Rows {
			jw.Rows = append(jw.Rows, JSONWarmRow{
				Name:      r.Name,
				InitHeavy: r.InitHeavy,
				InitSteps: r.InitSteps,
				ColdNanos: r.ColdNanos,
				WarmNanos: r.WarmNanos,
				Speedup:   r.Speedup,
			})
		}
		rep.WarmPool = jw
	}
	if rc != nil {
		jc := &JSONRunComparison{
			BestOf:         rc.BestOf,
			GeomeanSpeedup: rc.GeomeanSpeedup,
		}
		for _, r := range rc.Rows {
			jc.Rows = append(jc.Rows, JSONRunRow{
				Name:           r.Name,
				ReferenceNanos: r.ReferenceNanos,
				CompiledNanos:  r.CompiledNanos,
				Speedup:        r.Speedup,
			})
		}
		rep.RunComparison = jc
	}
	return json.MarshalIndent(rep, "", "  ")
}

// JSON converts a load replay into its report block.
func (r *LoadResult) JSON() *JSONLoad {
	j := &JSONLoad{
		Targets:        r.Targets,
		Workers:        r.Workers,
		Units:          r.Units,
		Tenants:        r.Tenants,
		RunFraction:    r.RunFraction,
		ZipfS:          r.ZipfS,
		ElapsedNanos:   int64(r.Elapsed),
		Requests:       r.Requests,
		Compiles:       r.Compiles,
		CachedCompiles: r.CachedCompiles,
		Runs:           r.Runs,
		Throttled:      r.Throttled,
		Errors:         r.Errors,
		GuestSteps:     r.GuestSteps,
		GuestAllocs:    r.GuestAllocs,
		ErrorSamples:   r.ErrorSamples,
		Latencies: map[string]obs.LatencySummary{
			"compile": r.CompileHist.Summary(),
			"run":     r.RunHist.Summary(),
		},
	}
	if len(r.TenantRunHists) > 0 {
		j.TenantLatencies = make(map[string]obs.LatencySummary, len(r.TenantRunHists))
		for i, h := range r.TenantRunHists {
			j.TenantLatencies[fmt.Sprintf("tenant-%d", i)] = h.Summary()
		}
	}
	return j
}

// FormatJSONLoad renders a load replay as a trajectory snapshot: a
// schema-stamped report whose only payload is the load block.
func FormatJSONLoad(r *LoadResult) ([]byte, error) {
	rep := JSONReport{Schema: jsonSchema, Rows: []JSONRow{}, Claims: []JSONClaim{}, Load: r.JSON()}
	return json.MarshalIndent(rep, "", "  ")
}
