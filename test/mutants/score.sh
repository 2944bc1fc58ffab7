#!/usr/bin/env bash
# Mutation score of the repository's checks.
#
#   bash test/mutants/score.sh [--only PATTERN] [WORKDIR]
#
# Copies the tracked (and untracked, unignored) files of this checkout to
# WORKDIR (default: a fresh directory under $TMPDIR), builds the copy, and
# then, for each test/mutants/*.patch in turn: applies the patch, rebuilds,
# runs every check below, and reverts the patch. With --only, only the
# patches that touch a file whose path matches PATTERN (an extended
# regex, e.g. lib/experiments or 'lib/(sim|bpred)') are scored; no
# matching patch is a usage error (exit 2). Prints a Markdown table
# with one row per mutant: K where a check kills it (fails), . where the
# mutant survives it. Columns, one per check:
#
#   smoke-pin   @sim-smoke: bench/sim_smoke.expected and the re-run
#   fuzz-pin    test/sim_pins.expected
#   emu         test_emu, test_isa, test_compiler, test_workloads and
#               test/emu_pins.expected
#   source .. roundtrip
#               each wishfuzz oracle over 120 cases of root seed 2005
#   bin         every bin/*.expected pin (dune build @bin/runtest)
#   sample      @sample-smoke
#   test_sim    test/test_sim.exe and test/test_sim_units.exe
#   test_experiments
#               test/test_experiments.exe
#
# About forty seconds per mutant on two cores; a check that runs past ten
# minutes counts as a kill. The copy is left in WORKDIR.
set -u
only=
if [ "${1:-}" = --only ]; then
  only=${2:?--only needs a PATTERN}
  shift 2
fi
root=$(cd "$(dirname "$0")/../.." && pwd)
patches=()
for p in "$root"/test/mutants/*.patch; do
  if [ -z "$only" ] || sed -n 's|^+++ b/||p' "$p" | grep -qE -- "$only"; then patches+=("$p"); fi
done
if [ ${#patches[@]} -eq 0 ]; then
  echo "score.sh: no patch under test/mutants touches a file matching '$only'" >&2
  exit 2
fi
work=${1:-$(mktemp -d "${TMPDIR:-/tmp}/wish-mutants.XXXXXX")}
mkdir -p "$work"
tree=$work/tree
rm -rf "$tree"
mkdir -p "$tree"
(cd "$root" && git ls-files -co --exclude-standard -z \
  | while IFS= read -r -d '' f; do [ -e "$f" ] && printf '%s\0' "$f"; done \
  | tar --null -T - -cf -) | tar -xf - -C "$tree"
cd "$tree" || exit 2
rm -rf _build

oracles=$(sed -n 's/^  | [A-Z][a-z_]* -> "\([a-z]*\)"$/\1/p' lib/fuzz/oracle.ml)

targets="bin/wishfuzz.exe bin/experiments.exe bin/wishsim.exe bench/sim_smoke.exe
  bench/sample_smoke.exe test/test_sim.exe test/test_sim_units.exe test/sim_pins.exe
  test/test_emu.exe test/test_isa.exe test/test_compiler.exe test/test_workloads.exe
  test/emu_pins.exe test/test_experiments.exe"
build() { dune build --root . $targets >"$work/build.log" 2>&1; }
if ! build; then
  echo "the unmutated copy does not build; see $work/build.log" >&2
  exit 2
fi
exe=_build/default

mark() { if "$@"; then printf ' K |'; else printf ' . |'; fi; }
differs() { ! cmp -s "$1" "$2"; }
# alcotest EXE OUT: run an Alcotest suite from its own directory; OUT
# gets its [FAIL] lines, or one "crashed" line when it fails without any.
alcotest() {
  (cd "$(dirname "$1")" && timeout 600 "./$(basename "$1")") >"$work/at.out" 2>&1
  local rc=$?
  grep '\[FAIL\]' "$work/at.out" | sort -u >"$2"
  [ $rc -eq 0 ] || [ -s "$2" ] || echo crashed >"$2"
}

header="| mutant | area | smoke-pin | fuzz-pin | emu |"
for o in $oracles; do header="$header $o |"; done
header="$header bin | sample | test_sim | test_experiments | killed |"
echo "$header"
echo "$header" | sed 's/[^|][^|]*/---/g'

for p in "${patches[@]}"; do
  name=$(basename "$p" .patch)
  area=$(head -n 1 "$p" | cut -d: -f1)
  row="| $name | $area |"
  if ! patch -s -p1 <"$p"; then
    echo "$row does not apply |"
    continue
  fi
  if ! build; then
    echo "$row does not build |"
    patch -s -R -p1 <"$p"
    continue
  fi
  cells=""
  timeout 600 "$exe/bench/sim_smoke.exe" >"$work/smoke.out" 2>"$work/smoke.err"
  cells="$cells$(mark eval 'differs bench/sim_smoke.expected "$work/smoke.out" || [ -s "$work/smoke.err" ]')"
  cells="$cells$(mark eval '! (cd test && timeout 600 ../$exe/test/sim_pins.exe) >"$work/pins.out" 2>&1 || differs test/sim_pins.expected "$work/pins.out"')"
  for t in test_emu test_isa test_compiler test_workloads; do alcotest $exe/test/$t.exe "$work/$t.fails"; done
  cells="$cells$(mark eval 'cat "$work"/test_{emu,isa,compiler,workloads}.fails | grep -q . || ! timeout 600 $exe/test/emu_pins.exe >"$work/emu_pins.out" 2>&1 || differs test/emu_pins.expected "$work/emu_pins.out"')"
  for o in $oracles; do
    cells="$cells$(mark eval '! timeout 600 "$exe/bin/wishfuzz.exe" --oracle $o --count 120 --no-corpus --shrink-tries 0 >/dev/null 2>&1')"
  done
  cells="$cells$(mark eval '! timeout 600 dune build --root . @bin/runtest >/dev/null 2>&1')"
  cells="$cells$(mark eval '! timeout 600 "$exe/bench/sample_smoke.exe" >/dev/null 2>&1')"
  alcotest $exe/test/test_sim.exe "$work/test_sim.fails"
  cells="$cells$(mark eval '[ -s "$work/test_sim.fails" ] || ! timeout 600 $exe/test/test_sim_units.exe >/dev/null 2>&1')"
  alcotest $exe/test/test_experiments.exe "$work/test_experiments.fails"
  cells="$cells$(mark eval '[ -s "$work/test_experiments.fails" ]')"
  if [[ "$cells" == *K* ]]; then killed=yes; else killed=no; fi
  echo "$row$cells $killed |"
  patch -s -R -p1 <"$p"
done
