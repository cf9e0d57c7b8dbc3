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

echo "==> storage smoke (threads 1 vs 4 byte-identical on the largest example)"
storage_dir="${TMPDIR:-/tmp}/park-storage-$$"
mkdir -p "$storage_dir"
for t in 1 4; do
  cargo run -p park-cli --bin park --release --offline --quiet -- \
    run examples/data/payroll.park --db examples/data/payroll.facts \
    --updates examples/data/payroll.updates --stats --threads "$t" 2>&1 \
    | sed -e 's/elapsed=[^ ]*/elapsed=_/' -e '/^threads=/d' > "$storage_dir/t$t.out"
done
# Results, counters (including tasks=), and blocked sets must not depend on
# the thread count; only the masked wall-clock and thread line may differ.
cmp "$storage_dir/t1.out" "$storage_dir/t4.out"
rm -rf "$storage_dir"

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

echo "==> compiled evaluator smoke (debug vs release, threads 1 vs 4 byte-identical)"
compiled_dir="${TMPDIR:-/tmp}/park-compiled-$$"
mkdir -p "$compiled_dir/wl"
cargo run -p park-cli --bin park --release --offline --quiet -- \
  workload closure --n 64 --out "$compiled_dir/wl" > /dev/null
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
  # And the evaluator must not observe the thread count.
  for t in 1 4; do
    # shellcheck disable=SC2086
    cargo run -p park-cli --bin park --release --offline --quiet -- \
      run "$prog" $db $updates --stats --threads "$t" 2>&1 \
      | sed -e 's/elapsed=[^ ]*/elapsed=_/' -e '/^threads=/d' \
      > "$compiled_dir/$name.t$t.out"
  done
  cmp "$compiled_dir/$name.t1.out" "$compiled_dir/$name.t4.out"
done
# The lowered-plan dump is stable and names every cost-model pick.
cargo run -p park-cli --bin park --release --offline --quiet -- \
  analyze examples/data/payroll.park --db examples/data/payroll.facts --plan \
  > "$compiled_dir/plan.out"
grep -q 'lowered program:' "$compiled_dir/plan.out"
rm -rf "$compiled_dir"

echo "==> serve smoke (golden session, threads 1 vs 4 byte-identical)"
serve_dir="${TMPDIR:-/tmp}/park-serve-$$"
mkdir -p "$serve_dir"
for t in 1 4; do
  cargo run -p park-cli --bin park --release --offline --quiet -- \
    serve --threads "$t" \
    < crates/cli/tests/golden/serve_session.ndjson > "$serve_dir/t$t.out"
done
cmp "$serve_dir/t1.out" "$serve_dir/t4.out"
cmp "$serve_dir/t1.out" crates/cli/tests/golden/serve_session.golden
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
# here) the transcripts must agree to the byte. The masks mirror the
# storage smoke; serve frames carry neither field today.
for mode in plain incremental; do
  if [ "$mode" = incremental ]; then flag="--incremental"; else flag=""; fi
  # shellcheck disable=SC2086
  cargo run -p park-cli --bin park --release --offline --quiet -- \
    serve $flag < "$inc_dir/session.ndjson" \
    | sed -e 's/elapsed=[^ ]*/elapsed=_/' -e '/^threads=/d' > "$inc_dir/$mode.out"
done
cmp "$inc_dir/plain.out" "$inc_dir/incremental.out"

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
    | sed -e 's/elapsed=[^ ]*/elapsed=_/' -e '/^threads=/d' > "$inc_dir/del.$mode.out"
done
cmp "$inc_dir/del.plain.out" "$inc_dir/del.incremental.out"
rm -rf "$inc_dir"

echo "==> metrics smoke (park run --metrics + park report)"
metrics_dir="${TMPDIR:-/tmp}/park-verify-$$"
mkdir -p "$metrics_dir"
cargo run -p park-cli --bin park --release --offline --quiet -- \
  run examples/data/p1.park --db examples/data/p1.facts \
  --metrics "$metrics_dir/metrics.json" > /dev/null
grep -q '"schema": "park-metrics/v1"' "$metrics_dir/metrics.json"
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

echo "==> cargo doc --no-deps (warnings are errors)"
RUSTDOCFLAGS="-D warnings" cargo doc --workspace --no-deps --offline --quiet

echo "verify: OK"
