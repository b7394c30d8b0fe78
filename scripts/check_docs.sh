#!/usr/bin/env bash
# Tier-2 docs check: docs/REPRODUCING.md and bench/ must stay in sync.
#
#   1. Every `bench/<name>` the guide references must exist as a harness
#      source (bench/<name>.cpp) — no documenting binaries that were
#      renamed or removed.
#   2. Every harness in bench/ must be documented in the guide — adding a
#      figure/table reproduction without telling people how to run it
#      fails this check.
#   3. When a build directory is given and contains the bench binaries,
#      each documented binary must have been built.
#   4. Every flag a bench/ or examples/ binary declares in its flag table
#      (`.name = "--flag"` entries, src/cli/flags.h; the shared runner
#      flags are declared in bench/bench_util.h) must be documented in the
#      guide — adding a flag without documenting it fails this check.
#   5. Every protocol verb in src/serve/protocol.h's kVerbs array, and
#      every run-request member (the `key == "..."` arms of
#      apply_run_field() in src/serve/protocol.cpp, plus trial_first),
#      must appear in docs/REPRODUCING.md.
#   6. The defense registry (src/defense/defense.cpp) and the docs must
#      agree: every registered defense name must be documented in both
#      docs/REPRODUCING.md and docs/ARCHITECTURE.md. The generated
#      docs/DEFENSE_MATRIX.md must exist and mention every registered
#      defense (a registry addition forces a report refresh).
#   7. Same for the attack registry (src/core/attacks/registry.cpp):
#      every registered attack name must be documented (backticked) in
#      docs/REPRODUCING.md, docs/ARCHITECTURE.md and README.md, and must
#      appear in the generated docs/DEFENSE_MATRIX.md — registering a new
#      attack without docs or a matrix refresh fails this check.
#   8. The distributed sweep surface must be documented: the
#      `whisper_cli sweep` subcommand and its `--endpoints` pool grammar,
#      the BENCH_dist.json trajectory, and invariant 13 (distribution is
#      invisible) in docs/ARCHITECTURE.md.
#
# Usage: check_docs.sh <repo-root> [build-dir]
# Wired into ctest as `docs_reproducing_sync` (LABELS tier2).
set -u

root="${1:-.}"
build="${2:-}"
guide="$root/docs/REPRODUCING.md"
fail=0

if [[ ! -f "$guide" ]]; then
  echo "FAIL: $guide does not exist"
  exit 1
fi

# Names referenced as bench/<name> in the guide (strip code-fence noise).
documented=$(grep -oE 'bench/[a-z0-9_]+' "$guide" | sed 's|bench/||' |
             sort -u)

# Harness sources in bench/ (bench_util.h is the shared header, not a
# binary).
harnesses=$(ls "$root"/bench/*.cpp | xargs -n1 basename | sed 's|\.cpp$||' |
            sort -u)

for name in $documented; do
  if [[ ! -f "$root/bench/$name.cpp" ]]; then
    echo "FAIL: docs/REPRODUCING.md references bench/$name but" \
         "bench/$name.cpp does not exist"
    fail=1
  fi
done

for name in $harnesses; do
  if ! grep -q "bench/$name" "$guide"; then
    echo "FAIL: bench/$name.cpp is not documented in docs/REPRODUCING.md"
    fail=1
  fi
done

# Every flag table entry in bench/ and examples/ must appear in the guide.
nflags=0
for src in "$root"/bench/*.cpp "$root"/bench/*.h "$root"/examples/*.cpp; do
  for flag in $(grep -oE '\.name = "--[a-z-]+"' "$src" |
                grep -oE -- '--[a-z-]+' | sort -u); do
    nflags=$((nflags + 1))
    if ! grep -q -- "\`$flag" "$guide"; then
      echo "FAIL: ${src#"$root"/} declares $flag but docs/REPRODUCING.md" \
           "does not document it"
      fail=1
    fi
  done
done

# The serve daemon's wire surface: every verb in the kVerbs array
# (src/serve/protocol.h) must be documented in the guide.
verbs=$(sed -n '/kVerbs\[\]/,/};/p' "$root/src/serve/protocol.h" |
        grep -oE '"[a-z]+"' | tr -d '"' | sort -u)
if [[ -z "$verbs" ]]; then
  echo "FAIL: could not extract kVerbs from src/serve/protocol.h"
  fail=1
fi
for verb in $verbs; do
  if ! grep -q -- "\`$verb\`" "$guide"; then
    echo "FAIL: src/serve/protocol.h lists verb '$verb' but" \
         "docs/REPRODUCING.md does not document it"
    fail=1
  fi
done
members=$( (sed -n '/^bool apply_run_field(/,/^}/p' \
              "$root/src/serve/protocol.cpp" |
            grep -oE 'key == "[a-z_]+"' | grep -oE '"[a-z_]+"' | tr -d '"'
            echo trial_first) | sort -u)
if [[ $(echo "$members" | wc -l) -lt 2 ]]; then
  echo "FAIL: could not extract the run-request members from" \
       "src/serve/protocol.cpp"
  fail=1
fi
for member in $members; do
  if ! grep -q -- "\`$member\`" "$guide"; then
    echo "FAIL: src/serve/protocol.cpp accepts run-request member" \
         "'$member' but docs/REPRODUCING.md does not document it"
    fail=1
  fi
done

# The defense registry is the systematization's name authority: every name
# in src/defense/defense.cpp's kRegistry table must be documented (backticked)
# in both the guide and the architecture doc, and must appear in the
# generated matrix report.
arch_doc="$root/docs/ARCHITECTURE.md"
matrix_doc="$root/docs/DEFENSE_MATRIX.md"
if [[ ! -f "$arch_doc" ]]; then
  echo "FAIL: $arch_doc does not exist"
  fail=1
fi
if [[ ! -f "$matrix_doc" ]]; then
  echo "FAIL: $matrix_doc does not exist (generate with bench/defense_matrix" \
       "--report)"
  fail=1
fi
defenses=$(sed -n '/kRegistry = {/,/^  };/p' "$root/src/defense/defense.cpp" |
           grep -oE '^      \{"[a-z0-9_-]+"' | grep -oE '[a-z0-9_-]+' |
           sort -u)
if [[ -z "$defenses" ]]; then
  echo "FAIL: could not extract the defense registry from" \
       "src/defense/defense.cpp"
  fail=1
fi
for name in $defenses; do
  if ! grep -q -- "\`$name\`" "$guide"; then
    echo "FAIL: defense '$name' is registered but docs/REPRODUCING.md does" \
         "not document it"
    fail=1
  fi
  if [[ -f "$arch_doc" ]] && ! grep -q -- "\`$name\`" "$arch_doc"; then
    echo "FAIL: defense '$name' is registered but docs/ARCHITECTURE.md does" \
         "not document it"
    fail=1
  fi
  if [[ -f "$matrix_doc" ]] && ! grep -q -- "$name" "$matrix_doc"; then
    echo "FAIL: defense '$name' is registered but docs/DEFENSE_MATRIX.md" \
         "does not cover it — regenerate the report"
    fail=1
  fi
done

# The attack registry is the name authority on the other axis of the
# systematization matrix: every name in src/core/attacks/registry.cpp's
# table must be documented (backticked) in the guide, the architecture doc
# and the README, and must appear in the generated matrix report.
readme="$root/README.md"
attacks=$(sed -n '/std::vector<AttackInfo> registry = {/,/^  };/p' \
          "$root/src/core/attacks/registry.cpp" |
          grep -oE '^      \{"[a-z0-9_-]+"' | grep -oE '[a-z0-9_-]+' |
          sort -u)
if [[ -z "$attacks" ]]; then
  echo "FAIL: could not extract the attack registry from" \
       "src/core/attacks/registry.cpp"
  fail=1
fi
for name in $attacks; do
  if ! grep -q -- "\`$name\`" "$guide"; then
    echo "FAIL: attack '$name' is registered but docs/REPRODUCING.md does" \
         "not document it"
    fail=1
  fi
  if [[ -f "$arch_doc" ]] && ! grep -q -- "\`$name\`" "$arch_doc"; then
    echo "FAIL: attack '$name' is registered but docs/ARCHITECTURE.md does" \
         "not document it"
    fail=1
  fi
  if [[ -f "$readme" ]] && ! grep -q -- "\`$name\`" "$readme"; then
    echo "FAIL: attack '$name' is registered but README.md does not list it"
    fail=1
  fi
  if [[ -f "$matrix_doc" ]] && ! grep -q -- "$name" "$matrix_doc"; then
    echo "FAIL: attack '$name' is registered but docs/DEFENSE_MATRIX.md" \
         "does not cover it — regenerate the report"
    fail=1
  fi
done

# The distributed sweep surface: the sweep subcommand and its endpoint
# grammar, the trajectory name, and the invariant it all hangs off.
for needle in 'whisper_cli sweep' '--endpoints' 'BENCH_dist.json' \
              'trial_first'; do
  if ! grep -q -- "$needle" "$guide"; then
    echo "FAIL: docs/REPRODUCING.md does not mention '$needle'" \
         "(distributed sweep surface undocumented)"
    fail=1
  fi
done
if [[ -f "$arch_doc" ]] && ! grep -q "invariant 13" "$arch_doc"; then
  echo "FAIL: docs/ARCHITECTURE.md does not state invariant 13" \
       "(distribution is invisible)"
  fail=1
fi

if [[ -n "$build" && -d "$build/bench" ]]; then
  for name in $documented; do
    if [[ -f "$root/bench/$name.cpp" && ! -x "$build/bench/$name" ]]; then
      echo "FAIL: documented binary $build/bench/$name was not built"
      fail=1
    fi
  done
fi

if [[ $fail -eq 0 ]]; then
  echo "OK: $(echo "$documented" | wc -w) documented harnesses," \
       "$(echo "$harnesses" | wc -w) bench sources, $nflags table flags," \
       "$(echo "$verbs" | wc -w) serve verbs," \
       "$(echo "$members" | wc -w) run-request members," \
       "$(echo "$defenses" | wc -w) defenses," \
       "$(echo "$attacks" | wc -w) attacks, all in sync"
fi
exit $fail
