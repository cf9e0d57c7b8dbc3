#!/usr/bin/env sh
# Full verification: release build, the whole workspace test suite,
# formatting, and lints. This is the gate every change must pass.
set -eu

cd "$(dirname "$0")/.."

echo "==> cargo build --release"
cargo build --release --offline

echo "==> cargo test --workspace"
cargo test --workspace --offline --quiet

echo "==> cargo fmt --check"
cargo fmt --all --check

echo "==> cargo clippy --all-targets -- -D warnings"
cargo clippy --workspace --all-targets --offline -- -D warnings

echo "==> restarts bench smoke (BENCH_restarts.json)"
cargo run -p park-bench --bin report --release --offline --quiet -- --only restarts --smoke
grep -q '"replayed_steps"' BENCH_restarts.json

echo "==> differential fuzz smoke (engine vs paper-literal oracle)"
cargo run -p park-cli --bin park --release --offline --quiet -- fuzz --seed 0 --cases 200
cargo run -p park-cli --bin park --release --offline --quiet -- \
  fuzz --seed 0 --cases 100 --bias stratified

echo "==> debug fuzz smoke (in-engine Γ reference, replay and certificate checks)"
# A debug build compiles in the engine's reference checks: every live Γ
# step is checked against the definitional naive Γ, every replayed
# restart step is re-evaluated live and compared, and certified runs still
# collect conflicts and assert there are none. Sized to stay under about a
# minute on a 2-vCPU host.
cargo run -p park-cli --bin park --offline --quiet -- fuzz --seed 0 --cases 500
cargo run -p park-cli --bin park --offline --quiet -- \
  fuzz --seed 0 --cases 100 --bias stratified

echo "==> analyze --graph smoke (valid JSON, stable ordering, every example)"
graph_dir="${TMPDIR:-/tmp}/park-graph-$$"
mkdir -p "$graph_dir"
for prog in examples/data/*.park; do
  name="$(basename "${prog%.park}")"
  # Two runs must agree to the byte (the condensation ordering is
  # deterministic), and the dump must be a park-graph/v1 document.
  for i in 1 2; do
    cargo run -p park-cli --bin park --release --offline --quiet -- \
      analyze "$prog" --graph > "$graph_dir/$name.$i.json"
  done
  cmp "$graph_dir/$name.1.json" "$graph_dir/$name.2.json"
  grep -q '"schema": "park-graph/v1"' "$graph_dir/$name.1.json"
  grep -q '"stratum"' "$graph_dir/$name.1.json"
  cargo run -p park-cli --bin park --release --offline --quiet -- \
    analyze "$prog" --graph --dot | grep -q '^digraph park {'
done
rm -rf "$graph_dir"

echo "==> query smoke (debug and release answers byte-identical)"
query_dir="${TMPDIR:-/tmp}/park-query-$$"
mkdir -p "$query_dir"
printf 'X = ann, S = 52000\nX = bob, S = 48000\n' > "$query_dir/want.out"
# The debug build also compares every answer set with the definitional
# Γ enumeration inside the engine.
for profile in debug release; do
  if [ "$profile" = release ]; then flag="--release"; else flag=""; fi
  # shellcheck disable=SC2086
  cargo run -p park-cli --bin park $flag --offline --quiet -- \
    query "?- active(X), eligible(X), payroll(X, S), S > 40000." \
    --db examples/data/payroll.facts > "$query_dir/$profile.out"
done
cmp "$query_dir/debug.out" "$query_dir/release.out"
cmp "$query_dir/want.out" "$query_dir/release.out"
rm -rf "$query_dir"

echo "==> compiled evaluator smoke (debug vs release byte-identical)"
compiled_dir="${TMPDIR:-/tmp}/park-compiled-$$"
mkdir -p "$compiled_dir/wl"
cargo run -p park-cli --bin park --release --offline --quiet -- \
  workload closure --n 64 --out "$compiled_dir/wl" > /dev/null
# Conflict- and restart-heavy workloads, sized like the benchmark's
# cold_conflict tenants: the debug build also compares every conflict
# collection with the naive grouping of the run's firings.
cargo run -p park-cli --bin park --release --offline --quiet -- \
  workload payroll --n 500 --out "$compiled_dir/wl" > /dev/null
cargo run -p park-cli --bin park --release --offline --quiet -- \
  workload inventory --out "$compiled_dir/wl" > /dev/null
for prog in examples/data/*.park "$compiled_dir"/wl/*.park; do
  base="${prog%.park}"
  name="$(basename "$base")"
  db=""; [ -f "$base.facts" ] && db="--db $base.facts"
  updates=""; [ -f "$base.updates" ] && updates="--updates $base.updates"
  # A debug build checks every live Γ step of the compiled evaluator
  # against the definitional naive Γ inside the engine; its results and
  # trace must be byte-identical to the release build's.
  for profile in debug release; do
    if [ "$profile" = release ]; then flag="--release"; else flag=""; fi
    # shellcheck disable=SC2086
    cargo run -p park-cli --bin park $flag --offline --quiet -- \
      run "$prog" $db $updates --trace > "$compiled_dir/$name.$profile.out"
  done
  cmp "$compiled_dir/$name.debug.out" "$compiled_dir/$name.release.out"
done
# The lowered-plan dump is stable and names every cost-model pick.
cargo run -p park-cli --bin park --release --offline --quiet -- \
  analyze examples/data/payroll.park --db examples/data/payroll.facts --plan \
  > "$compiled_dir/plan.out"
grep -q 'lowered program:' "$compiled_dir/plan.out"
rm -rf "$compiled_dir"

echo "==> serve smoke (golden session byte-identical)"
serve_dir="${TMPDIR:-/tmp}/park-serve-$$"
mkdir -p "$serve_dir"
cargo run -p park-cli --bin park --release --offline --quiet -- \
  serve < crates/cli/tests/golden/serve_session.ndjson > "$serve_dir/session.out"
cmp "$serve_dir/session.out" crates/cli/tests/golden/serve_session.golden
# A request line that is not UTF-8 gets an error frame of its own, and
# the session keeps serving.
printf '{"op":"ping"}\n\377\n{"op":"ping"}\n' \
  | cargo run -p park-cli --bin park --release --offline --quiet -- serve \
  > "$serve_dir/bad.out"
printf '%s\n' '{"frame":"hello","seq":0,"schema":"park-serve/v1","policy":"inertia","scope":"all"}' \
  '{"frame":"pong","seq":1}' \
  '{"frame":"error","seq":2,"message":"request line is not valid UTF-8"}' \
  '{"frame":"pong","seq":3}' '{"frame":"bye","seq":4,"databases":[]}' > "$serve_dir/bad.want"
cmp "$serve_dir/bad.want" "$serve_dir/bad.out"
# A program whose atom is wider than a column mask (33 columns) is served
# like any other: the database is created, settles, and the session
# answers the ping after it. Under `timeout`, a worker that dies without
# answering fails the step instead of hanging it.
wide_vars="X0"; wide_consts="a"; i=1
while [ "$i" -le 32 ]; do
  wide_vars="$wide_vars, X$i"; wide_consts="$wide_consts, c$i"; i=$((i + 1))
done
printf '%s\n' \
  "{\"op\":\"create\",\"db\":\"wide\",\"program\":\"p($wide_vars), r(X32) -> +q(X0).\",\"facts\":\"p($wide_consts). r(c32).\"}" \
  '{"op":"settle","db":"wide"}' '{"op":"ping"}' \
  | timeout 120 cargo run -p park-cli --bin park --release --offline --quiet -- serve \
  > "$serve_dir/wide.out"
printf '%s\n' '{"frame":"hello","seq":0,"schema":"park-serve/v1","policy":"inertia","scope":"all"}' \
  '{"frame":"created","seq":1,"db":"wide","policy":"inertia","facts":2}' \
  '{"frame":"delta","seq":2,"db":"wide","tx":1,"added":["q(a)"],"removed":[],"blocked":[],"stats":{"gamma_steps":2,"restarts":0,"conflicts_resolved":0,"blocked_instances":0},"storage":{"facts":3,"encoded_bytes":140,"vocab_symbols":33,"vocab_predicates":3,"vocab_int_spills":0}}' \
  '{"frame":"pong","seq":3}' \
  '{"frame":"bye","seq":4,"databases":[{"db":"wide","transactions":1,"facts":3,"vocab":{"symbols":33,"predicates":3,"int_spills":0}}]}' \
  > "$serve_dir/wide.want"
cmp "$serve_dir/wide.want" "$serve_dir/wide.out"
rm -rf "$serve_dir"

echo "==> incremental smoke (50-transaction session, --incremental on/off byte-identical)"
inc_dir="${TMPDIR:-/tmp}/park-inc-$$"
mkdir -p "$inc_dir"
snap="$inc_dir/inc.snapshot.json"
{
  printf '%s\n' '{"op":"create","db":"inc","program":"e(X, Y) -> +r(X, Y). r(X, Y), e(Y, Z) -> +r(X, Z).","facts":"e(n0, n1)."}'
  i=1
  while [ "$i" -le 50 ]; do
    printf '{"op":"transact","db":"inc","updates":"+e(n%s, n%s)."}\n' "$i" "$((i + 1))"
    # Every ten inserts: a base-edge deletion (partial-stratum path), a
    # deletion of a derived fact (a conflict: the warm path bails), then
    # a snapshot, a restore of it, a policy change and a compaction, each
    # of which drops the warm state.
    case $((i % 10)) in
      3) printf '{"op":"transact","db":"inc","updates":"-e(n%s, n%s)."}\n' "$((i - 1))" "$i" ;;
      5) printf '{"op":"transact","db":"inc","updates":"-r(n%s, n%s)."}\n' "$((i - 1))" "$i" ;;
      7) printf '{"op":"snapshot","db":"inc","path":"%s"}\n' "$snap" ;;
      8) printf '{"op":"restore","db":"inc","path":"%s"}\n' "$snap" ;;
      9)
        if [ $(((i / 10) % 2)) -eq 0 ]; then policy=prefer-delete; else policy=inertia; fi
        printf '{"op":"policy","db":"inc","policy":"%s"}\n' "$policy"
        ;;
      0) printf '%s\n' '{"op":"compact","db":"inc"}' ;;
    esac
    i=$((i + 1))
  done
  printf '%s\n' '{"op":"settle","db":"inc"}'
  printf '%s\n' '{"op":"state","db":"inc"}'
  printf '%s\n' '{"op":"shutdown"}'
} > "$inc_dir/session.ndjson"
# The certified chain is answered warm under --incremental and from
# scratch without it; outside the opt-in stats frame (not requested
# here) the transcripts must agree to the byte. The mask hides
# wall-clock time; serve frames carry none today.
for mode in plain incremental; do
  if [ "$mode" = incremental ]; then flag="--incremental"; else flag=""; fi
  # shellcheck disable=SC2086
  cargo run -p park-cli --bin park --release --offline --quiet -- \
    serve $flag < "$inc_dir/session.ndjson" \
    | sed -e 's/elapsed=[^ ]*/elapsed=_/' > "$inc_dir/$mode.out"
done
cmp "$inc_dir/plain.out" "$inc_dir/incremental.out"
# A debug build also compares every warm refire pass (the seeding at
# build, stratum revalidation, the reseed after a bail) with naive Γ
# inside the engine; its transcript must equal the release one.
cargo run -p park-cli --bin park --offline --quiet -- \
  serve --incremental < "$inc_dir/session.ndjson" \
  | sed -e 's/elapsed=[^ ]*/elapsed=_/' > "$inc_dir/incremental.debug.out"
cmp "$inc_dir/incremental.out" "$inc_dir/incremental.debug.out"

# Deletion-bearing chain on a stratified-negation program: base-fact
# deletions ride the partial-stratum warm path, the derived-fact
# deletion bails to a cold conflict run — either way the transcript
# must be byte-identical to the always-cold session.
{
  printf '%s\n' '{"op":"create","db":"del","program":"e(X, Y) -> +r(X, Y). r(X, Y), e(Y, Z) -> +r(X, Z). r(X, Y), !blocked(X) -> +open(X, Y)."}'
  i=1
  while [ "$i" -le 20 ]; do
    printf '{"op":"transact","db":"del","updates":"+e(n%s, n%s)."}\n' "$i" "$((i + 1))"
    printf '{"op":"transact","db":"del","updates":"-e(n%s, n%s). +blocked(n%s)."}\n' "$((i + 1))" "$((i + 2))" "$i"
    i=$((i + 4))
  done
  printf '%s\n' '{"op":"transact","db":"del","updates":"-r(n1, n2)."}'
  printf '%s\n' '{"op":"settle","db":"del"}'
  printf '%s\n' '{"op":"state","db":"del"}'
  printf '%s\n' '{"op":"shutdown"}'
} > "$inc_dir/deletions.ndjson"
for mode in plain incremental; do
  if [ "$mode" = incremental ]; then flag="--incremental"; else flag=""; fi
  # shellcheck disable=SC2086
  cargo run -p park-cli --bin park --release --offline --quiet -- \
    serve $flag < "$inc_dir/deletions.ndjson" \
    | sed -e 's/elapsed=[^ ]*/elapsed=_/' > "$inc_dir/del.$mode.out"
done
cmp "$inc_dir/del.plain.out" "$inc_dir/del.incremental.out"
cargo run -p park-cli --bin park --offline --quiet -- \
  serve --incremental < "$inc_dir/deletions.ndjson" \
  | sed -e 's/elapsed=[^ ]*/elapsed=_/' > "$inc_dir/del.debug.out"
cmp "$inc_dir/del.incremental.out" "$inc_dir/del.debug.out"
rm -rf "$inc_dir"

echo "==> metrics smoke (park run --metrics + park report)"
metrics_dir="${TMPDIR:-/tmp}/park-verify-$$"
mkdir -p "$metrics_dir"
cargo run -p park-cli --bin park --release --offline --quiet -- \
  run examples/data/p1.park --db examples/data/p1.facts \
  --metrics "$metrics_dir/metrics.json" > /dev/null
grep -q '"schema": "park-metrics/v1"' "$metrics_dir/metrics.json"
# A trace and a metrics document fed from one run: the step listing must
# be byte-identical to the trace-only run's.
for prog in examples/data/*.park; do
  base="${prog%.park}"
  name="$(basename "$base")"
  updates=""; [ -f "$base.updates" ] && updates="--updates $base.updates"
  # shellcheck disable=SC2086
  cargo run -p park-cli --bin park --release --offline --quiet -- \
    run "$prog" --db "$base.facts" $updates --trace > "$metrics_dir/$name.trace.out"
  # shellcheck disable=SC2086
  cargo run -p park-cli --bin park --release --offline --quiet -- \
    run "$prog" --db "$base.facts" $updates --trace \
    --metrics "$metrics_dir/$name.metrics.json" > "$metrics_dir/$name.both.out"
  cmp "$metrics_dir/$name.trace.out" "$metrics_dir/$name.both.out"
  grep -q '"schema": "park-metrics/v1"' "$metrics_dir/$name.metrics.json"
done
cargo run -p park-cli --bin park --release --offline --quiet -- \
  report "$metrics_dir/metrics.json" > "$metrics_dir/report.md"
grep -q '# PARK run-metrics report' "$metrics_dir/report.md"
rm -rf "$metrics_dir"

echo "==> park lint smoke (examples + generated workloads)"
lint_dir="${TMPDIR:-/tmp}/park-lint-$$"
mkdir -p "$lint_dir"
for w in irreflexive-graph closure chains payroll inventory inventory-guards; do
  cargo run -p park-cli --bin park --release --offline --quiet -- \
    workload "$w" --n 20 --out "$lint_dir" > /dev/null
done
for prog in examples/data/*.park "$lint_dir"/*.park; do
  status=0
  cargo run -p park-cli --bin park --release --offline --quiet -- \
    lint "$prog" --format json > "$lint_dir/lint.out" || status=$?
  if [ "$status" -ge 2 ]; then
    echo "verify: park lint reports error-severity diagnostics in $prog" >&2
    exit 1
  fi
  grep -q '"schema": "park-lint/v1"' "$lint_dir/lint.out"
done
rm -rf "$lint_dir"

echo "==> perfbench build, tests and traced smoke run (served frames vs replay)"
# perfbench is a package of its own and builds against the engine API it
# uses, so a change to that API fails here rather than in a benchmark run.
# A traced run checks every served frame against a replay, byte for byte,
# so a commit that reorders rows fails it. It writes its spans to
# perfbench/runs/ (ignored by git).
cargo build --release --offline --manifest-path perfbench/Cargo.toml
cargo test --release --offline --manifest-path perfbench/Cargo.toml
perf_out="${TMPDIR:-/tmp}/park-perfbench-$$.out"
cargo run --release --offline --quiet --manifest-path perfbench/Cargo.toml -- \
  --workload all --seed 1 --seconds 2 --trace 1 > "$perf_out"
tail -n 1 "$perf_out" | grep -q '"correct":true'
rm -f "$perf_out"

echo "==> cargo doc --no-deps (warnings are errors)"
RUSTDOCFLAGS="-D warnings" cargo doc --workspace --no-deps --offline --quiet

echo "verify: OK"
