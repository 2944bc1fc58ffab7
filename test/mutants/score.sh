#!/usr/bin/env bash
# Mutation score of the timing core's checks.
#
#   bash test/mutants/score.sh [WORKDIR]
#
# Copies the tracked (and untracked, unignored) files of this checkout to
# WORKDIR (default: a fresh directory under $TMPDIR), builds the copy, and
# then, for each test/mutants/*.patch in turn: applies the patch, rebuilds,
# runs every check below, and reverts the patch. Prints a Markdown table
# with one row per mutant: K where a check kills it (fails), . where the
# mutant survives it. Columns:
#
#   twin        the interpreted core against the compiled one (only while
#               lib/sim/core.ml exists): @sim-smoke's comparison and the
#               fuzz sim oracle's over @fuzz-smoke's 120 cases; K1000 when
#               only `wishfuzz --count 1000` kills it
#   smoke-pin   @sim-smoke: bench/sim_smoke.expected and the pooled re-run
#   fuzz-pin    test/sim_pins.expected
#   lockstep .. roundtrip
#               each wishfuzz oracle over 120 cases of root seed 2005 (the
#               sim oracle's accounting and re-run checks, not the twin)
#   bin         every bin/*.expected pin (dune build @bin/runtest)
#   sample      @sample-smoke
#   test_sim    test/test_sim.exe and test/test_sim_units.exe
#
# About half a minute per mutant on two cores. The copy is left in WORKDIR.
set -u
root=$(cd "$(dirname "$0")/../.." && pwd)
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

targets="bin/wishfuzz.exe bin/experiments.exe bin/wishsim.exe bench/sim_smoke.exe
  bench/sample_smoke.exe test/test_sim.exe test/test_sim_units.exe test/sim_pins.exe"
build() { dune build --root . $targets >"$work/build.log" 2>&1; }
if ! build; then
  echo "the unmutated copy does not build; see $work/build.log" >&2
  exit 2
fi
exe=_build/default
twin=no
[ -e lib/sim/core.ml ] && twin=yes
oracles="lockstep binaries sim sampled observed roundtrip"

fuzz() { # fuzz ORACLE COUNT: every failure reason, one a line; fails on a crash
  "$exe/bin/wishfuzz.exe" --oracle "$1" --count "$2" --no-corpus --shrink-tries 0 \
    --max-failures 100000 >"$work/fuzz.out" 2>/dev/null
  local rc=$?
  sed -n 's/^  reason: //p' "$work/fuzz.out"
  [ $rc -le 1 ]
}
mark() { if "$@"; then printf ' K |'; else printf ' . |'; fi; }
differs() { ! cmp -s "$1" "$2"; }

header="| mutant | area |"
[ $twin = yes ] && header="$header twin |"
header="$header smoke-pin | fuzz-pin |"
for o in $oracles; do header="$header $o |"; done
header="$header bin | sample | test_sim | killed |"
echo "$header"
echo "$header" | sed 's/[^|][^|]*/---/g'

for p in "$root"/test/mutants/*.patch; do
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
  "$exe/bench/sim_smoke.exe" >"$work/smoke.out" 2>"$work/smoke.err"
  fuzz sim 120 >"$work/sim.reasons" || echo "wishfuzz crashed" >>"$work/sim.reasons"
  cells=""
  if [ $twin = yes ]; then
    if grep -q 'twin:' "$work/smoke.err" || grep -q '^twin:' "$work/sim.reasons"; then
      cells=" K |"
    elif fuzz sim 1000 | grep -q '^twin:'; then
      cells=" K1000 |"
    else
      cells=" . |"
    fi
  fi
  cells="$cells$(mark eval 'differs bench/sim_smoke.expected "$work/smoke.out" || grep -qv twin: "$work/smoke.err"')"
  cells="$cells$(mark eval '! (cd test && ../$exe/test/sim_pins.exe) >"$work/pins.out" 2>&1 || differs test/sim_pins.expected "$work/pins.out"')"
  for o in $oracles; do
    if [ "$o" = sim ]; then
      cells="$cells$(mark grep -qv '^twin:' "$work/sim.reasons")"
    else
      cells="$cells$(mark eval '! "$exe/bin/wishfuzz.exe" --oracle $o --count 120 --no-corpus --shrink-tries 0 >/dev/null 2>&1')"
    fi
  done
  cells="$cells$(mark eval '! dune build --root . @bin/runtest >/dev/null 2>&1')"
  cells="$cells$(mark eval '! "$exe/bench/sample_smoke.exe" >/dev/null 2>&1')"
  cells="$cells$(mark eval '! (cd $exe/test && ./test_sim.exe && ./test_sim_units.exe) >/dev/null 2>&1')"
  if [[ "$cells" == *K* ]]; then killed=yes; else killed=no; fi
  echo "$row$cells $killed |"
  patch -s -R -p1 <"$p"
done
