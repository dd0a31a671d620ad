#!/bin/sh
# Offline CI gate: formatting, lints and the full test suite.
# Run from the repository root. Fails fast on the first broken step.
#
#   ./ci.sh            the full gate
#   ./ci.sh coverage   per-crate line coverage via cargo-llvm-cov
#                      (gracefully skipped when the tool is not installed)
set -eu

cd "$(dirname "$0")"

if [ "${1:-}" = "coverage" ]; then
    echo "== per-crate coverage (cargo llvm-cov) =="
    if cargo llvm-cov --version >/dev/null 2>&1; then
        # Per-crate numbers: one summary row per workspace crate (the
        # table README.md points at). --offline keeps this hermetic.
        cargo llvm-cov --workspace --offline --summary-only
    else
        echo "cargo-llvm-cov is not installed; skipping coverage."
        echo "Install it on a networked machine with:"
        echo "    cargo install cargo-llvm-cov"
        echo "then re-run: ./ci.sh coverage"
    fi
    exit 0
fi

echo "== cast-ratchet lint: no unchecked 'as u32' in core/mctree sources =="
# Truncating id/count casts were swept in PR9 (use u32::try_from instead);
# this keeps new ones from creeping back into the protocol crates.
if grep -rn ' as u32' crates/core/src crates/mctree/src; then
    echo "unchecked ' as u32' cast in crates/core or crates/mctree; use u32::try_from"
    exit 1
fi

echo "== one-path ratchet: no constructor/runner families, no engine jobs fork =="
# PR14 folded the `_with_cache/_sharded/_jobs/_faulty/_traced` twins into one
# entry point per layer; an option goes in the layer's options struct, not
# into a second function name. Allowed: `build_dgmc_sim_with_cache` (frozen by
# perf/) and the seed sweep's pool size, `par::default_jobs`.
# A `foo` / `foo_with(.., cache)` pair is the same fork: an algorithm takes
# the `SpfCache` it runs through. Allowed: the two names perf/ calls,
# `RoutingTable::compute_with` and `build_dgmc_sim_with_cache`.
if grep -rnE 'pub fn [a-z0-9_]+_(with_cache|sharded|jobs|faulty|traced|with)\b|pub fn [a-z0-9_]+_with_|set_jobs' crates/*/src |
    grep -vE '^crates/des/src/par\.rs:.*pub fn default_jobs\b' |
    grep -vE 'pub fn build_dgmc_sim_with_cache\b' |
    grep -vE '^crates/lsr/src/routes\.rs:.*pub fn compute_with\b'; then
    echo "a second entry point for an option (or the engine jobs fork) is back; see DESIGN.md §13"
    exit 1
fi
# One executor under the model checker: `des::mc` has one forward search (no
# sharded DFS, no worker pool), and `experiments::systematic` steps the
# shipped `NodeCore` — it builds no engine of its own, floods nothing by hand
# and pairs no engine with a spec outside a core (DESIGN.md §11).
if grep -nE 'explore_sharded|SHARD_PREFIXES|par::' crates/des/src/mc.rs ||
    grep -nE 'DgmcEngine::new|fn dispatch|SwitchPair' crates/experiments/src/systematic.rs; then
    echo "a second forward search or a private stepping harness is back in the model checker"
    exit 1
fi
# PR15 applied the same rule item by item: the MOSPF `new_incremental` fork and
# the always-65536 `log_capacity` knob are gone, and `perf/` is the one
# benchmark (no `criterion` stand-in, no second bench crate).
if grep -rnE 'new_incremental|log_capacity' crates/*/src ||
    grep -n 'criterion' Cargo.toml crates/*/Cargo.toml vendor/*/Cargo.toml perf/Cargo.toml; then
    echo "a deleted fork, knob or the second benchmark is back; see ROADMAP.md item 2"
    exit 1
fi

# The lines under the given paths that build a `SwitchMsg` of one of the
# variants in $1. A line is a match pattern, and dropped, only when the
# variant comes before its `=>`; one written after a match arm's `=>` is a
# constructor. Each ratchet below first runs on a planted file and must
# catch the constructor in it and pass the pattern.
switch_msg_ctors() {
    variants=$1
    shift
    grep -rnE "SwitchMsg::($variants)" "$@" | grep -vE "SwitchMsg::($variants)\b.*=>"
}
ci_tmp=$(mktemp -d)
trap 'rm -rf "$ci_tmp"' EXIT
plant() {
    printf '%s\n' "        Step::Cut => out.push(SwitchMsg::$1 { x }),"
    printf '%s\n' "        SwitchMsg::$2 { .. } => {}"
} >"$ci_tmp/planted.rs"

# PR16: a scenario step becomes switch inputs in one place. The link/nodal
# inputs are built only by `link_event_inputs` / `node_event_inputs` (match
# arms that merely read them are fine), and the launcher is an executor of
# `scenario::play`, not a second decomposition with its own cut-link tracker.
# Also allowed: `node/src/control.rs`, the control-line codec, which parses a
# line into the input it names; and `experiments/src/systematic.rs`, the model
# checker (not an experiment harness), whose fail-stop crash is one
# `NodeAdmin` with no link detections.
plant LinkEvent NodeAdmin
[ "$(switch_msg_ctors 'LinkEvent|NodeAdmin' "$ci_tmp" | wc -l)" -eq 1 ] || {
    echo "the link/nodal constructor ratchet missed its planted constructor or flagged a pattern"
    exit 1
}
if switch_msg_ctors 'LinkEvent|NodeAdmin' crates/*/src tests examples |
    grep -v '^crates/core/src/switch.rs:' |
    grep -v '^crates/node/src/control.rs:' |
    grep -v '^crates/experiments/src/systematic.rs:'; then
    echo "a link or nodal input is built outside dgmc_core::switch; use {link,node}_event_inputs"
    exit 1
fi
if grep -rnE 'fn apply_step|cut: BTreeSet' crates/node/src; then
    echo "the launcher decomposes steps by hand again; it is an executor of scenario::play"
    exit 1
fi
# PR17: the experiment harnesses play their membership events too
# (`Workload::{warm_up, measured}` or `Step`s built in place), and the
# explore binary's mode switch is its own: no library read `ExploreMode`.
# Also allowed: `systematic.rs`, the model checker (not an experiment
# harness), which fires its scripted joins at the cores itself.
plant HostLeave HostJoin
[ "$(switch_msg_ctors 'Host(Join|Leave)' "$ci_tmp" | wc -l)" -eq 1 ] || {
    echo "the membership constructor ratchet missed its planted constructor or flagged a pattern"
    exit 1
}
if switch_msg_ctors 'Host(Join|Leave)' crates/experiments/src |
    grep -v '^crates/experiments/src/scenario.rs:' |
    grep -v '^crates/experiments/src/systematic.rs:' ||
    grep -rn 'ExploreMode' crates src tests examples; then
    echo "a membership input built by hand in an experiment harness, or ExploreMode, is back"
    exit 1
fi

# One input type: every adapter hands `NodeCore` a `SwitchMsg`. A private
# input enum in the core or the model checker, or the driver mapping a link
# to its neighbour, is a second translation layer coming back; the control
# line is written and read in `node/src/control.rs` alone.
if grep -nE 'enum Input\b' crates/core/src/proto.rs crates/experiments/src/systematic.rs ||
    grep -nE 'fn parse_link\b|fn parse_join\b|fn on_(link_event|send_data|admin)\b' \
        crates/node/src/driver.rs crates/core/src/proto.rs ||
    grep -n 'fn control_line\b' crates/node/src/launcher.rs; then
    echo "a second input type or a hand-kept control-line half is back; see DESIGN.md §14"
    exit 1
fi

# PR19: the node has one blocking wait (a channel `recv_timeout` fed by reader
# threads) and a control line is one segment. A non-blocking socket is the
# polling loop coming back, a read timeout in the driver is the tick-rounded
# `SO_RCVTIMEO` sleep, and `writeln!` onto a socket is two `write`s, the
# second of which Nagle holds for the peer's delayed ACK (DESIGN.md §14).
if grep -rn 'set_nonblocking' crates/node/src ||
    grep -n 'set_read_timeout' crates/node/src/driver.rs ||
    grep -rnE 'writeln!\([^,]*(ctl|stream|conn|tcp|sock)' crates/node/src; then
    echo "the node's polling loop or a two-write control line is back; see DESIGN.md §14"
    exit 1
fi

# PR20: a flood's body is parsed in one place, `NodeCore::frame`, and only
# after its FloodId proved fresh. The framing layer and the driver never name
# a body decoder, so an eager parse cannot come back through them; and which
# flood path runs is decided by what arrived (typed values from the DES, bytes
# from a wire), never by a flag, an environment variable or an options field.
# No wall-clock gate: `proto_unit`'s garbage-body-on-a-known-id test is the
# deterministic pin (DESIGN.md §14).
if grep -nE 'decode_(payload|mc_lsa|router_lsa)' crates/node/src/frame.rs crates/node/src/driver.rs; then
    echo "the framing layer or the driver parses a flood body again; that is NodeCore::frame's, after the id"
    exit 1
fi
if grep -rnE '"--(eager|lazy|typed|wire|flood|parse)[a-z-]*"|DGMC_(FLOOD|EAGER|LAZY|WIRE|PARSE)|(eager|lazy)_(parse|decode|floods?|bod(y|ies))|flood_(path|mode)|parse_(floods|bodies)' \
    crates --include='*.rs' --include='*.toml'; then
    echo "a switch selecting the flood path is back; the path follows the frame variant that arrived"
    exit 1
fi

# PR22: the image follows the LSDB. `Lsdb::install` patches the one image in
# place when the LSA kept its roster and rebuilds it otherwise; the switch
# borrows `lsdb.image()` and only recomputes routes. `proto.rs` naming the
# from-scratch builder, or `NodeCore` holding an `image:` field again, is the
# per-LSA rebuild and the second copy coming back. Which of the two paths runs
# follows from the LSA, never from a flag, an environment variable or an
# options field. No wall-clock gate: `image_follows_every_install` and the
# `debug_assert` in `install` are the pins (DESIGN.md §14).
if grep -n 'local_image' crates/core/src/proto.rs ||
    grep -nE '^[[:space:]]*(pub(\([a-z]+\))? )?image:' crates/core/src/proto.rs; then
    echo "NodeCore rebuilds or stores its own image again; it borrows Lsdb::image()"
    exit 1
fi
if grep -rnE '"--(incremental|rebuild|delta|patch)[a-z-]*"|DGMC_(IMAGE|DELTA|REBUILD|INCREMENTAL|PATCH)|(incremental|delta|rebuild|patch)_(image|lsdb)|image_(mode|path|delta|rebuild)' \
    crates --include='*.rs' --include='*.toml'; then
    echo "a switch selecting delta vs rebuild is back; the path follows whether the roster changed"
    exit 1
fi

# A tree is a value and a sorted slice. `McTopology` is one `Rc` (a clone is
# a refcount bump, the mutators copy on write; nothing moves a tree between
# threads since the sharded model checker went, so no atomic refcount is paid
# on every relay) over one sorted `Vec` of edges (binary search, index-merge
# diffs; a `BTreeSet` of edges is the node walk coming back). An install diffs
# trees instead of rebuilding them: `McArena::sync` collecting a tree's edges,
# or `proto.rs` naming an edge set again, is the per-install copy coming back.
# Shared is the only path: no flag, environment variable or options field
# selects copied trees or the layout. No wall-clock gate: the arena's rebuild
# oracle, the two-set reference test in `topology_type.rs` and the size
# ratchet in `mc.rs` are the pins (DESIGN.md §14).
if sed -n '/pub fn sync/,/^    }/p' crates/core/src/arena.rs | grep -n 'collect' ||
    grep -n 'BTreeSet<(NodeId, NodeId)>' crates/core/src/proto.rs; then
    echo "an install copies a tree's edges again; diff with McTopology::diff_edges"
    exit 1
fi
# The tests keep a two-`BTreeSet` reference, so only the code above them is
# held to the layout.
if ! grep -qE '(^|[^A-Za-z_])Rc<' crates/mctree/src/topology_type.rs ||
    sed '/^#\[cfg(test)\]/,$d' crates/mctree/src/topology_type.rs |
    grep -nE 'Arc<|BTreeSet<\(NodeId, NodeId\)>'; then
    echo "McTopology is no longer one shared Rc over a sorted edge slice"
    exit 1
fi
if grep -rnE '"--(deep-copy|share|copy|cow|layout)[a-z-]*"|DGMC_(SHARE|COPY|COW|LAYOUT)|(share|shared|deep_copy|copy|cow)_(trees?|topolog(y|ies))|(tree|topology|edge)_(share|sharing|copy|cow|layout)\b|deep_copy' \
    crates --include='*.rs' --include='*.toml'; then
    echo "a switch selecting shared vs copied trees, or the edge layout, is back; there is one path"
    exit 1
fi

# A stamp is a value, as a tree is. `Timestamp` holds its components behind
# one `Rc`: a clone is a refcount bump, so a relayed MC LSA, a candidate,
# `old_r` and the `E = R` reset copy no vector; `incr` and `merge_max` copy
# on write, and a merge that raises nothing writes nothing. `merge_max`
# grows the one vector and merges in place, so it names no second `Vec`.
# Shared is the only path: no flag, environment variable or options field
# selects copied stamps. No wall-clock gate: the dense reference test and
# the no-copy pin in `timestamp.rs` and the size ratchet in `mc.rs` are the
# pins (DESIGN.md §14).
if ! sed '/^#\[cfg(test)\]/,$d' crates/core/src/timestamp.rs | grep -qE '^    entries: Rc<Vec<\(u32, u64\)>>,' ||
    sed '/^#\[cfg(test)\]/,$d' crates/core/src/timestamp.rs | grep -nE 'Arc<|entries: Vec<' ||
    sed -n '/pub fn merge_max/,/^    }/p' crates/core/src/timestamp.rs | grep -nE 'Vec::|vec!|collect|with_capacity'; then
    echo "Timestamp no longer holds its components behind one Rc, or merge_max builds a second Vec"
    exit 1
fi
if grep -rnE '"--(copy|share|shared|cow|dense)-(stamps?|timestamps?)"|DGMC_(STAMP|TIMESTAMP)|(share|shared|copy|copied|cow|dense)_(stamps?|timestamps?)\b|(stamps?|timestamps?)_(share|shared|sharing|copy|cow|mode|layout)\b' \
    crates --include='*.rs' --include='*.toml'; then
    echo "a switch selecting shared vs copied stamps is back; there is one path"
    exit 1
fi

# A delivery is a FIFO pop. The DES queue keeps a `const` number of FIFO
# lanes, one per delay (an actor schedules at an advancing instant, so one
# delay's events come due in scheduling order), over a fallback heap; the
# flooder keeps one mark per origin plus the ids above it, so `flood.rs`
# naming a `HashSet` above its tests is the SipHashed seen-set coming back.
# Lanes and marks are the only path: no flag, environment variable or options
# field selects the queue or the seen-set layout. No wall-clock gate: the
# queue and flooder model tests and `proto_unit`'s out-of-range origin test
# are the pins (DESIGN.md §14).
if ! grep -qE '^const LANES: usize = [0-9]+;' crates/des/src/sim.rs ||
    sed '/^#\[cfg(test)\]/,$d' crates/lsr/src/flood.rs | grep -n 'HashSet'; then
    echo "the DES queue lost its const lanes or the flooder hashes its seen ids again"
    exit 1
fi
if grep -rnE '"--(lanes?|heap|queue|seen|marks?|early)[a-z-]*"|DGMC_(LANES?|HEAP|QUEUE|SEEN|MARKS?)|(lanes?|queue|heap)_(count|mode|layout|kind|kinds)\b|(seen|flood_id|dedup)_(set|mode|layout|kind)\b|(set|with)_lanes' \
    crates --include='*.rs' --include='*.toml'; then
    echo "a switch selecting the event queue or the seen-set layout is back; there is one path"
    exit 1
fi

# Routes repair from the LSDB's own delta, so the SPF cache memoizes nothing:
# `SpfCache` is pooled Dijkstra/repair arenas plus counters, and a switch's
# routing table repairs its own tree from `Lsdb::take_changes`. A map or a
# content digest in `cache.rs` above its tests is the digest-keyed memo coming
# back; `SpfCache::disabled` is its off switch. No flag, environment variable
# or options field selects a memo. No wall-clock gate: the route check after
# every input in `lsr_substrate` and `repair_equals_full_recompute_under_heavy_churn`
# are the pins (DESIGN.md §9).
if sed '/^#\[cfg(test)\]/,$d' crates/topology/src/cache.rs | grep -nE 'HashMap|digest\(' ||
    grep -rn 'SpfCache::disabled' crates src tests examples; then
    echo "the SPF cache memoizes again; routes repair from the LSDB's delta (DESIGN.md §9)"
    exit 1
fi
if grep -rnE '"--(memo|cache|no-cache|uncached)[a-z-]*"|DGMC_(MEMO|CACHE|SPF)|(memo|spf_cache|cache)_(mode|enabled|kind|generations?)\b|(enable|disable|with)_memo\b|pub (spf_)?cache: SpfCache' \
    crates --include='*.rs' --include='*.toml'; then
    echo "a switch selecting an SPF memo is back; routes repair from the LSDB's delta"
    exit 1
fi

# One sweep, one row: every experiment harness folds its graphs through
# `presets::sweep` (the pooled sweep that hands results back in graph order)
# into `presets::Row`, so a `for g in 0..` or `for r in 0..runs` loop above a
# file's tests is a serial per-graph loop coming back. The convergence tail is
# the exact nearest-rank percentiles of its samples, so `des::stats` keeps no
# bucketed `Histogram`; a run under injected faults is
# `explore::run_scenario`'s, so `run_dgmc` takes a `TraceMode`, not an options
# struct with a `faults` field.
for f in crates/experiments/src/*.rs crates/experiments/src/bin/*.rs; do
    if sed '/^#\[cfg(test)\]/,$d' "$f" | grep -nE 'for g in 0\.\.|for r in 0\.\.runs'; then
        echo "$f: a serial per-graph loop is back; fold the graphs through presets::sweep"
        exit 1
    fi
done
if grep -n 'Histogram' crates/des/src/stats.rs ||
    grep -nE 'RunOptions|faults *:|\.faults\b' crates/experiments/src/runner.rs; then
    echo "des::stats::Histogram or run_dgmc's fault options are back; see DESIGN.md §10"
    exit 1
fi

echo "== cargo fmt --check =="
cargo fmt --all -- --check

echo "== cargo clippy (warnings are errors) =="
cargo clippy --workspace --all-targets --offline -- -D warnings

echo "== cargo test (with backtraces, so panics in threaded tests are diagnosable) =="
RUST_BACKTRACE=1 cargo test --workspace --offline -q

echo "== node e2e (multi-process localhost mesh, ignored tests) =="
cargo build -q --offline --release -p dgmc-node
RUST_BACKTRACE=1 DGMC_NODE_BIN="$PWD/target/release/dgmc-node" \
    cargo test --offline -q --test node_e2e --test node_conformance -- --ignored

echo "== localhost mesh smoke (5-node teleconference to convergence, then the op latency gate) =="
rm -rf results/mesh-smoke
DGMC_NODE_BIN="$PWD/target/release/dgmc-node" \
    cargo run --offline -q --release -p dgmc-node --bin node_e2e -- \
    scenarios/teleconference_mesh.dgmc --out results/mesh-smoke \
    --name mesh_smoke --deadline-secs 60 >results/mesh-smoke.json
grep -q '"invariant_violations":0' results/mesh-smoke.json || {
    echo "mesh smoke reported invariant violations"
    exit 1
}
cost=$(sed -n 's/.*"mc\.1\.tree_cost":\([0-9]*\).*/\1/p' results/mesh-smoke.json)
[ "${cost:-0}" -gt 0 ] || {
    echo "mc.1.tree_cost gauge missing or zero in results/mesh-smoke.json"
    exit 1
}
# Latency gate: an op on the 5-node ring is ~1 ms. 20 ms is 7 % of what it
# was with Nagle and the tick-rounded wait in the path (288 ms; 56 ms with
# only the tick-rounded wait left) and 20x what it is, so a noisy box passes
# and neither cause can come back unnoticed.
p50=$(bash perf/run.sh --workload mesh_udp5 --seed 1996 --seconds 3 --trace 0 | tail -n 1 |
    sed -n 's/.*"op_ms_p50":{"value":\([0-9.e+-]*\).*/\1/p')
[ -n "$p50" ] || {
    echo "mesh_udp5 printed no op_ms_p50"
    exit 1
}
awk -v p50="$p50" 'BEGIN { exit !(p50 <= 20) }' || {
    echo "mesh_udp5 op_ms_p50 is $p50 ms (gate: 20 ms)"
    exit 1
}
echo "mesh_udp5 op_ms_p50 = $p50 ms"
if command -v pgrep >/dev/null 2>&1; then
    if pgrep -f 'dgmc-node --id' >/dev/null 2>&1; then
        echo "orphan dgmc-node processes left running after the mesh smoke"
        exit 1
    fi
fi

echo "== explorer smoke (fixed seeds, fault-injected invariant check) =="
cargo run --offline -q --release -p dgmc-experiments --bin explore -- --seeds 25 --fail-fast

echo "== parallel explorer smoke (4 workers over the same seeds) =="
cargo run --offline -q --release -p dgmc-experiments --bin explore -- \
    --seeds 25 --jobs 4 --report results/explore-par.json

echo "== serial-vs-parallel report diff gate =="
cargo run --offline -q --release -p dgmc-experiments --bin explore -- \
    --seeds 25 --jobs 1 --report results/explore-serial.json >/dev/null
cmp results/explore-serial.json results/explore-par.json || {
    echo "explorer reports differ between --jobs 1 and --jobs 4"
    exit 1
}

echo "== systematic exploration smoke (4-node ring, 2 concurrent joins) =="
cargo run --offline -q --release -p dgmc-experiments --bin explore -- \
    --systematic --report results/systematic.json
grep -q '"complete":true' results/systematic.json || {
    echo "systematic exploration did not exhaust the 4-node/2-join state space"
    exit 1
}
grep -q '"passed":true' results/systematic.json || {
    echo "systematic exploration found a violation in the clean engine"
    exit 1
}

echo "== seeded withdrawal bug is caught with a minimized repro bundle =="
rm -rf results/systematic-mutation
if cargo run --offline -q --release -p dgmc-experiments --bin explore -- \
    --systematic --mutate skip-withdrawal --out results/systematic-mutation \
    >/dev/null 2>&1; then
    echo "the skip-withdrawal mutation escaped the systematic checker"
    exit 1
fi
ls results/systematic-mutation/repro-seed-*.json >/dev/null 2>&1 || {
    echo "no minimized repro bundle written for the seeded mutation"
    exit 1
}

echo "== every committed repro bundle replays to its recorded violations =="
# A bundle is a counterexample someone can re-run: its `replay` command must
# still resolve its trace against the scenario (exit 2 is a stale bundle)
# and reproduce the violations it records, invariant by invariant (exit 1).
# The replay writes into a scratch directory, never into results/.
cargo build -q --offline --release -p dgmc-experiments --bin explore
for bundle in $(find results -name 'repro-seed-*.json' | sort); do
    args=$(sed -n 's/.*"replay":"cargo run -p dgmc-experiments --bin explore -- \([^"]*\)".*/\1/p' "$bundle")
    [ -n "$args" ] || {
        echo "$bundle: no explore replay command"
        exit 1
    }
    status=0
    eval "target/release/explore $args --out \"\$ci_tmp/replay\"" >/dev/null 2>"$ci_tmp/replay.err" || status=$?
    recorded=$(grep -o '"invariant":"[a-z-]*"' "$bundle" | sed 's/.*:"\(.*\)"/\1/' | tr '\n' ' ')
    replayed=$(sed -n 's/^violated \([a-z-]*\): .*/\1/p' "$ci_tmp/replay.err" | tr '\n' ' ')
    [ "$status" -eq 1 ] && [ -n "$recorded" ] && [ "$recorded" = "$replayed" ] || {
        echo "$bundle: replay exited $status and violated [$replayed], the bundle records [$recorded]"
        cat "$ci_tmp/replay.err"
        exit 1
    }
    echo "$bundle: replays to [$recorded]"
done

echo "== repaired teardown-race scenario explores to exhaustion, clean =="
cargo run --offline -q --release -p dgmc-experiments --bin explore -- \
    --systematic --nodes 3 --joins 1 --leaves 1 \
    --report results/systematic-teardown.json
grep -q '"complete":true' results/systematic-teardown.json || {
    echo "the repaired teardown scenario was not exhausted"
    exit 1
}
grep -q '"passed":true' results/systematic-teardown.json || {
    echo "the repaired engine still violates the teardown scenario"
    exit 1
}

echo "== backward search reaches the seeded violation state =="
cargo run --offline -q --release -p dgmc-experiments --bin explore -- \
    --systematic --nodes 3 --joins 1 --leaves 1 --mutate unfenced-teardown \
    --backward --report results/backward-serial.json >/dev/null 2>&1 || {
    echo "backward search did not reach the seeded violation state"
    exit 1
}
grep -q '"found":true' results/backward-serial.json || {
    echo "backward report does not record the seeded state as found"
    exit 1
}

echo "== benchmark package builds and passes its toy-size workloads =="
# perf/ is its own workspace over the public API of crates/*: a break that
# would stop `bash perf/run.sh` compiling, or BENCHMARK.json drifting from
# the workload catalogue, fails here rather than in the next perf PR.
# --locked: a manifest edit inside perf/'s dependency closure fails here
# instead of silently rewriting perf/Cargo.lock.
cargo test --offline --locked -q --manifest-path perf/Cargo.toml

echo "== the mesh smoke repaired its routes from the LSDB's delta =="
# The teleconference cuts link 1-2 at 60 ms, so every node of the mesh smoke
# repairs its routing tree from the router LSA's one-link delta.
repairs=$(sed -n 's/.*"spf_cache\.repairs":\([0-9]*\).*/\1/p' results/mesh-smoke.json)
[ "${repairs:-0}" -gt 0 ] || {
    echo "spf_cache.repairs missing or zero in results/mesh-smoke.json"
    exit 1
}

echo "== exp1 trace export is schema-valid and jobs-independent =="
cargo run --offline -q --release -p dgmc-experiments --bin exp1 -- \
    --quick --jobs 1 >/dev/null
cp results/exp1.trace.json results/exp1.trace.serial.json
cargo run --offline -q --release -p dgmc-experiments --bin exp1 -- \
    --quick --jobs 4 >/dev/null
cmp results/exp1.trace.serial.json results/exp1.trace.json || {
    echo "exp1 trace files differ between --jobs 1 and --jobs 4"
    exit 1
}
cargo run --offline -q --release -p dgmc-experiments --bin trace_check -- \
    results/exp1.trace.json || {
    echo "results/exp1.trace.json failed Chrome trace-event validation"
    exit 1
}

echo "CI OK"
