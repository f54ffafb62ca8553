#!/usr/bin/env bash
# Tier-1 gate: everything a PR must keep green. Correctness only — the
# perf gate is the PR pipeline's slotbench parent-vs-change run
# (BENCHMARK.json; crates/slotbench/run.sh locally), not a wall-clock
# comparison on whatever host this script happens to run on.
set -euo pipefail
cd "$(dirname "$0")/.."

# golden <file> <cmd...>: the command's output must equal the committed
# golden file. A missing file fails first and by name: left to `diff`,
# its one-line error drowns under the producer's broken-pipe panic.
golden() {
    local file=$1
    shift
    if [ ! -f "$file" ]; then
        echo "missing golden file: $file" >&2
        exit 1
    fi
    "$@" | diff "$file" -
}

# The executor reads no clock: fuel is the only verdict on a guest call,
# so wall time cannot decide a fault or leak into a digest.
for file in crates/wasm/src/instance.rs crates/wasm/src/interp.rs; do
    if [ ! -f "$file" ]; then
        echo "clock tripwire: missing $file" >&2
        exit 1
    fi
    if grep -nw 'Instant' "$file"; then
        echo "clock tripwire: $file names Instant; the executor must read no clock" >&2
        exit 1
    fi
done

# The host reads the clock in one place, off the per-call path: exactly
# one non-test, non-comment `Instant::now` in crates/host/src, inside
# `Plugin::timed` and behind its `is_sampled(` test, so only the sampled
# calls (one in 16) are timed and every other call reads no clock.
if [ ! -f crates/host/src/plugin.rs ]; then
    echo "clock tripwire: missing crates/host/src/plugin.rs" >&2
    exit 1
fi
clocks=$(find crates/host/src -name '*.rs' -print0 |
    xargs -0 awk 'FNR == 1 { live = 1; timed = 0; sampled = 0 }
        /^[[:space:]]*#\[cfg\(test\)\]/ { live = 0 }
        /^[[:space:]]*\/\// { next }
        /(^|[^[:alnum:]_])fn [[:alnum:]_]+[<(]/ { timed = /fn timed[<(]/; sampled = 0 }
        timed && /is_sampled\(/ { sampled = 1 }
        live && /(Instant|SystemTime)::now/ {
            print FILENAME ":" FNR ": " (timed && sampled ? "sampled" : "UNSAMPLED") ": " $0
        }')
if [ "$(grep -c . <<<"$clocks")" -ne 1 ] || ! grep -q ': sampled: ' <<<"$clocks"; then
    echo "${clocks:-(no clock read found)}" >&2
    echo "clock tripwire: crates/host/src must read the clock exactly once, in Plugin::timed behind the is_sampled( test; the lines above are every clock read found" >&2
    exit 1
fi

# Production code hosts Wasm one way: bytes through a TemplateCache into a
# PluginHost slot. A bare `Plugin::new` there would skip admission,
# strikes, rollback, swap and the content hash.
for dir in crates/core/src crates/ric/src; do
    if [ ! -d "$dir" ]; then
        echo "hosting tripwire: missing $dir" >&2
        exit 1
    fi
    if grep -rnE '(^|[^[:alnum:]_])Plugin::new\(' "$dir"; then
        echo "hosting tripwire: $dir calls Plugin::new; host Wasm through a TemplateCache and a PluginHost slot" >&2
        exit 1
    fi
done

# The RIC plane is served in the cell that publishes: each indication is
# decoded, run through that cell's RIC state and answered inside
# `CellPort::publish`. The service thread, its blocking queue, the lossy
# mode and the reply timeout stay gone from the RIC and the engine.
if [ -e crates/ric/src/link.rs ]; then
    echo "RIC-plane tripwire: crates/ric/src/link.rs exists; indications are served inline by CellPort::publish" >&2
    exit 1
fi
for dir in crates/ric/src crates/core/src; do
    if grep -rnE 'thread::spawn|Condvar|send_wait|recv_timeout|Lossy|REPLY_TIMEOUT' "$dir"; then
        echo "RIC-plane tripwire: $dir names thread::spawn, Condvar, send_wait, recv_timeout, Lossy or REPLY_TIMEOUT; the plane has no thread, queue or timeout" >&2
        exit 1
    fi
done

# Panic-site ceilings (ROADMAP 3(d)): non-test `.unwrap()`, `.expect(`,
# `panic!(` and `unreachable!(` per crate's src, as scripts/loc.sh counts
# them (code only: comment and doc lines are skipped). A count may fall;
# the change that lowers one lowers its line here.
while read -r crate ceiling; do
    dir=crates/$crate/src
    if [ ! -d "$dir" ]; then
        echo "panic-site tripwire: missing $dir" >&2
        exit 1
    fi
    count=$(scripts/loc.sh "$dir" | awk '/^panic sites / { print $NF }')
    case $count in
    '' | *[!0-9]*)
        echo "panic-site tripwire: scripts/loc.sh gave no count for $dir" >&2
        exit 1
        ;;
    esac
    if [ "$count" -gt "$ceiling" ]; then
        echo "panic-site tripwire: $dir has $count panic sites, above its ceiling of $ceiling" >&2
        exit 1
    fi
done <<'EOF'
wasm 10
wat 5
plugc 12
abi 7
ric 0
core 3
host 1
ransim 0
EOF

# One pass lowers and proves: the walk that type-checks a body hands each
# op at once to the register lowering and to the proof's recorder, so
# every instance runs the code the proof checked. Outside
# crates/wasm/src/analysis.rs no non-test line (the scripts/loc.sh cut)
# calls the walk, `compile_func(`, and waran-wasm keeps its IR modules
# private: at most 11 `pub mod`s in its lib.rs.
for file in crates/wasm/src/analysis.rs crates/wasm/src/lib.rs; do
    if [ ! -f "$file" ]; then
        echo "lowering tripwire: missing $file" >&2
        exit 1
    fi
done
calls=$(find crates src tests examples -name '*.rs' ! -path crates/wasm/src/analysis.rs -print0 |
    xargs -0 awk 'FNR == 1 { live = 1 }
        /^[[:space:]]*#\[cfg\(test\)\]/ { live = 0 }
        live && /compile_func(::<[^>]*>)?\(/ && !/fn compile_func[<(]/ {
            print FILENAME ":" FNR ": " $0
        }')
if [ -n "$calls" ]; then
    echo "$calls" >&2
    echo "lowering tripwire: only crates/wasm/src/analysis.rs may call compile_func(" >&2
    exit 1
fi
# The loader lowers every call as a call: inlining is the guest
# compiler's job (PlugC's optimiser), and the loader's inliner stays gone.
if grep -rnwE 'try_inline|INLINE_MAX_INSTRS|INLINE_MAX_DEPTH|inline_stack' crates/wasm/src; then
    echo "lowering tripwire: crates/wasm/src names try_inline, INLINE_MAX_INSTRS, INLINE_MAX_DEPTH or inline_stack; the loader lowers every call as a call" >&2
    exit 1
fi
# Each body is type-checked by the walk that lowers it: the second walk
# and its control stack stay gone from crates/wasm/src.
if grep -rnwE 'FuncValidator|CtrlFrame' crates/wasm/src; then
    echo "lowering tripwire: crates/wasm/src names FuncValidator or CtrlFrame; a body is type-checked by the walk in compile.rs that lowers it" >&2
    exit 1
fi
# Block nesting is checked once, by the walk that type-checks: the
# decoder and the builder record `block`/`loop`/`if`/`else`/`end` as
# written, so the fixup pass and the pcs it pre-resolved into `Instr`
# stay gone from the crates that decode, assemble or emit bodies.
if grep -rnwE 'fixup_block_targets|FixupError|end_pc|else_pc' crates/wasm/src crates/wat/src crates/plugc/src; then
    echo "nesting tripwire: crates/{wasm,wat,plugc}/src names fixup_block_targets, FixupError, end_pc or else_pc; the walk in compile.rs is the one nesting check" >&2
    exit 1
fi
# The lowering check reads each body once and each register function
# once: the walk feeds the recorder, and one walk over the register ops
# records their side; the check compares the per-block records. The
# per-block re-walks it replaced stay gone from crates/wasm/src.
if grep -rnwE 'flat_counts|reg_counts|referenced_branches|block_events' crates/wasm/src; then
    echo "lowering tripwire: crates/wasm/src names flat_counts, reg_counts, referenced_branches or block_events; the check walks each IR once (the recorder, reg_walk)" >&2
    exit 1
fi
# No op of a body is stored: the walk hands each on to the lowering and
# the recorder at once. The stored flat function, its side-table height
# scan, the arity table and the two replays over it stay gone.
if grep -rnwE 'CompiledFunc|entry_heights|stack_effect|build_shape|follows_eqz|lower_func' crates/wasm/src; then
    echo "lowering tripwire: crates/wasm/src names CompiledFunc, entry_heights, stack_effect, build_shape, follows_eqz or lower_func; one walk per body feeds the lowering and the recorder" >&2
    exit 1
fi
# The bounds read the code that runs: the walk over the register ops takes
# each block's loop events off its fused forms, so the recorder keeps no
# symbolic operand stack and the value model it ran stays gone.
if grep -rnwE 'SymV|bin_sym|sym_pred|w_of' crates/wasm/src; then
    echo "lowering tripwire: crates/wasm/src names SymV, bin_sym, sym_pred or w_of; the loop bounds read their events off the register ops (reg_walk)" >&2
    exit 1
fi
pub_mods=$(grep -c '^pub mod' crates/wasm/src/lib.rs || true)
if [ "$pub_mods" -gt 11 ]; then
    echo "lowering tripwire: crates/wasm/src/lib.rs declares $pub_mods pub mods, above 11; keep the IR modules private" >&2
    exit 1
fi

# One operator table: each plain numeric or memory operator is declared
# once, by its row in crates/wasm/src/ops.rs, and `Instr` carries it as an
# operator payload. The per-operator copies the table replaced stay gone:
# nothing in crates/wasm/src names `mirror_ops!` or `from_instr(`, and no
# non-test line (the scripts/loc.sh cut) in crates/wasm/src or
# crates/wat/src names a per-operator `Instr` variant (`Instr::I32Add` and
# kin; the four constants and the `I32Bin`/`I64Bin` payloads are not).
for path in crates/wasm/src/ops.rs crates/wasm/src crates/wat/src; do
    if [ ! -e "$path" ]; then
        echo "operator-table tripwire: missing $path" >&2
        exit 1
    fi
done
if grep -rnE 'mirror_ops!|from_instr\(' crates/wasm/src; then
    echo "operator-table tripwire: crates/wasm/src names mirror_ops! or from_instr(; an operator is a row of the table in crates/wasm/src/ops.rs" >&2
    exit 1
fi
variants=$(find crates/wasm/src crates/wat/src -name '*.rs' -print0 |
    xargs -0 awk 'FNR == 1 { live = 1 }
        /^[[:space:]]*#\[cfg\(test\)\]/ { live = 0 }
        live {
            line = $0
            gsub(/Instr::(I32|I64|F32|F64)Const|Instr::I(32|64)Bin/, "", line)
            if (line ~ /Instr::(I32|I64|F32|F64)[A-Z]/) {
                print FILENAME ":" FNR ": " $0
            }
        }')
if [ -n "$variants" ]; then
    echo "$variants" >&2
    echo "operator-table tripwire: a non-test line names a per-operator Instr variant; use the payload (Instr::I32Bin(I32Op::Add), Instr::Load(LoadKind::I32, m), ...)" >&2
    exit 1
fi

# Two stack bounds, each one constant: the executor caps the register
# arena it allocates at `MAX_REGS` and the frames a call nests at
# `MAX_CALL_DEPTH` (past either a call traps `StackOverflow`), and
# emulates no operand stack. The names of the emulated limit and of the
# settings the constants replaced (the `ExecLimits` struct and its stack
# fields, the massive plane's two strides) stay gone from crates/.
if [ ! -d crates ]; then
    echo "stack tripwire: missing crates" >&2
    exit 1
fi
for name in vbase max_value_stack MAX_VALUE_STACK ValueStackExhausted \
    ExecLimits max_call_depth max_regs resample_stride arrival_stride; do
    if grep -rnw "$name" crates; then
        echo "stack tripwire: crates/ names $name; the stack bounds are the constants MAX_REGS and MAX_CALL_DEPTH, and a setting with one value is a constant" >&2
        exit 1
    fi
done

# The library every deployment links parses one format, the Wasm binary.
# The WAT assembler lives in the dev-only waran-wat crate; no deployment
# crate may reach it through a normal dependency edge.
if [ -e crates/wasm/src/wat.rs ]; then
    echo "text-parser tripwire: crates/wasm/src/wat.rs exists; the WAT assembler lives in crates/wat" >&2
    exit 1
fi
deps=$(cargo tree -e normal --offline -p waran-host -p waran-core -p waran-ric -p waran-bench -p wa-ran)
if grep -n 'waran-wat' <<<"$deps"; then
    echo "text-parser tripwire: a deployment crate depends on waran-wat; keep it a dev-dependency" >&2
    exit 1
fi

cargo build --release --workspace
cargo test -q --workspace
cargo clippy --workspace --all-targets -- -D warnings
cargo fmt --check
# A doc link to a deleted or private item fails here, by name.
RUSTDOCFLAGS="-D warnings" cargo doc --workspace --no-deps

# Static analysis: translation validation (each register lowering checked
# block by block against the reference the walk recorded: fuel,
# memory/call/trap ops and control flow, not values) plus resource-bound
# reports over every
# builtin example/fig5 plugin. Nonzero exit = a lowering failed its proof.
# The report and the register code each plugin executes must equal the
# committed golden file: a lowering change that adds an op, moves a bound
# or grows a frame shows up as a diff hunk naming the function.
golden crates/bench/analyze.golden target/release/analyze --builtin --reg
echo "static analyzer validated every builtin lowering; code and bounds match crates/bench/analyze.golden"

# Guest work: instructions each stock scheduler retires per call on
# Fig. 5d's fixed request, per policy and UE count — exact and
# host-independent, unlike the figure's timings. A plugin or PlugC change
# that makes the guest do more (or less) work shows as a hunk naming
# policy and UE count.
golden crates/bench/fig5d_fuel.golden target/release/fig5d --fuel
echo "guest instructions per call match crates/bench/fig5d_fuel.golden"

# Fig. 5a: three Wasm MVNO slices on the target-rate inter-slice
# allocation, 60 simulated seconds. The printed rate table, shape strip
# and summary are seeded and exact, so a change to the allocation, the
# token buckets or the stock schedulers shows as a hunk naming the MVNO.
golden crates/bench/fig5a.golden target/release/fig5a
echo "Fig. 5a matches crates/bench/fig5a.golden"

# Fig. 5b (live swap MT → PF → RR), Fig. 5c (sandboxed leak vs native
# leak) and the §5.D safety table: seeded and exact like Fig. 5a, so a
# change to hot swap, the memory cap or the trap paths shows as a hunk.
golden crates/bench/fig5b.golden target/release/fig5b
golden crates/bench/fig5c.golden target/release/fig5c
golden crates/bench/safety_table.golden target/release/safety_table
echo "Fig. 5b, Fig. 5c and the §5.D table match their golden files"

# Smoke: every example end to end, each well under a second in release.
# `quickstart` builds its plugin on the scheduler ABI's PlugC prelude;
# `ric_xapps` is the only caller of the one-cell RIC deployment outside
# the test suites and exits nonzero when no handover or no slice-target
# action was applied.
for example in quickstart mvno_slicing live_swap interface_adapter ric_xapps; do
    cargo run --release --quiet --example "$example" > /dev/null
done
echo "examples: all five ran; ric_xapps applied a steering handover and an SLA boost"

# Determinism: per-cell digests of the four fleet deployments (RIC
# attached, mobility, hostile pushes, million-UE plane) must equal the
# committed golden file at 2 and at 8 workers — worker-count independence
# and commit-to-commit stability in one diff, whose hunk names the
# scenario, the cell and both digests. The bin also asserts the rollback
# and population-ledger invariants.
for workers in 2 8; do
    golden crates/bench/digests.golden target/release/digests "$workers"
done
echo "fleet digests match crates/bench/digests.golden at 2 and 8 workers"
