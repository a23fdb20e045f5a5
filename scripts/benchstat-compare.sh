#!/usr/bin/env bash
# benchstat-compare.sh — run one set of Go comparison benchmarks, split the
# samples into baseline and contender files by their sub-name (mode=...,
# wire=..., client=...), strip that sub-name so benchstat pairs the cells,
# and compare with a pinned benchstat.
#
# The comparison benchmarks carry their variant in a sub-benchmark name;
# stripping it makes both variants share a benchmark name, which is exactly
# what benchstat needs to pair them up. benchstat is pinned for the same
# reason the linters are: a new release changing its statistics or output
# format must not flip a CI job's result on an unrelated commit.
#
# Usage:
#   scripts/benchstat-compare.sh \
#     -bench 'BenchmarkCollectionHier/nodes=(512|1024)' \
#     -pkgs  './internal/modules' \
#     -base  'mode=single' \
#     -cont  'mode=hier' \
#     -out   hier [-count 5] [-benchtime 3x]
#
# The wire comparison runs twice: the codecs alone (BenchmarkWireFormat,
# whole-fleet ticks, the default 3x) and one round trip per iteration over
# loopback TCP, which needs iterations to mean anything:
#   scripts/benchstat-compare.sh \
#     -bench 'BenchmarkStreamPullRoundTrip/wire=(json|columnar)$' \
#     -pkgs  './internal/rpc' -base 'wire=json' -cont 'wire=columnar' \
#     -out   wire-roundtrip -benchtime 2000x
#
# Writes <out>-raw.txt, <out>-base.txt, <out>-cont.txt, <out>-benchstat.txt.
set -euo pipefail

BENCHSTAT='golang.org/x/perf/cmd/benchstat@v0.0.0-20230113213139-801c7ef9e5c5'

bench='' pkgs='' base='' cont='' out='' count=5 benchtime=3x
while [ $# -gt 0 ]; do
  case "$1" in
    -bench)     bench=$2;     shift 2 ;;
    -pkgs)      pkgs=$2;      shift 2 ;;
    -base)      base=$2;      shift 2 ;;
    -cont)      cont=$2;      shift 2 ;;
    -out)       out=$2;       shift 2 ;;
    -count)     count=$2;     shift 2 ;;
    -benchtime) benchtime=$2; shift 2 ;;
    *) echo "benchstat-compare.sh: unknown flag $1" >&2; exit 2 ;;
  esac
done
for req in bench pkgs base cont out; do
  if [ -z "${!req}" ]; then
    echo "benchstat-compare.sh: -$req is required" >&2
    exit 2
  fi
done

# shellcheck disable=SC2086 # pkgs is an intentional word-split package list
go test -run '^$' -bench "$bench" -benchmem -benchtime "$benchtime" \
  -count "$count" $pkgs | tee "$out-raw.txt"

grep -E "^Benchmark[^ ]*($base)" "$out-raw.txt" \
  | sed -E "s#/($base)##" > "$out-base.txt"
grep -E "^Benchmark[^ ]*($cont)" "$out-raw.txt" \
  | sed -E "s#/($cont)##" > "$out-cont.txt"
echo "--- baseline samples ($base) ---";  cat "$out-base.txt"
echo "--- contender samples ($cont) ---"; cat "$out-cont.txt"
if [ ! -s "$out-base.txt" ] || [ ! -s "$out-cont.txt" ]; then
  echo "benchstat-compare.sh: a sample split came up empty — bench or split regex is stale" >&2
  exit 1
fi

go run "$BENCHSTAT" "$out-base.txt" "$out-cont.txt" | tee "$out-benchstat.txt"
