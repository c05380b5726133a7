#!/usr/bin/env bash
# Runs every row of a determinism manifest (default: ci/determinism.manifest)
# and byte-compares the artifacts of each row's runs; see the manifest for
# its format. Fails on a nonzero exit, an empty artifact, or any difference.
#
#   cargo build --release -p hyperpath-bench --bins
#   ci/determinism.sh [MANIFEST] [OUT_DIR]
#
# Binaries are taken from $BIN_DIR (default: target/release of this
# checkout). Artifacts land in OUT_DIR (default: determinism/) as
# <row>_<binary>_<run>.json, with each run's stdout beside it as .out.
set -euo pipefail

root=$(cd "$(dirname "$0")/.." && pwd)
manifest=${1:-$root/ci/determinism.manifest}
out=${2:-determinism}
bin_dir=${BIN_DIR:-$root/target/release}
mkdir -p "$out"

trim() { local s=$1; s=${s#"${s%%[![:space:]]*}"}; printf '%s' "${s%"${s##*[![:space:]]}"}"; }

row=0
while IFS='|' read -r bin args runs <&3; do
  bin=$(trim "$bin")
  [[ -z $bin || $bin == \#* ]] && continue
  row=$((row + 1))
  read -ra argv <<< "$args"
  first=
  for run in $runs; do
    env_pin=() flag_pin=()
    case $run in
      default) ;;
      env:*) env_pin=("RAYON_NUM_THREADS=${run#env:}") ;;
      flag:*) flag_pin=(--threads "${run#flag:}") ;;
      *) echo "row $row: unknown run '$run'" >&2; exit 2 ;;
    esac
    artifact=$out/$(printf '%02d' "$row")_${bin}_${run/:/}.json
    echo "row $row: $run: $bin ${argv[*]} ${flag_pin[*]}"
    if ! env "${env_pin[@]}" "$bin_dir/$bin" "${argv[@]}" "${flag_pin[@]}" --json "$artifact" \
        > "${artifact%.json}.out" < /dev/null; then
      cat "${artifact%.json}.out"
      echo "row $row: $bin exited nonzero under $run" >&2
      exit 1
    fi
    [[ -s $artifact ]] || { echo "row $row: empty artifact $artifact" >&2; exit 1; }
    if [[ -z $first ]]; then
      first=$artifact
    else
      cmp "$first" "$artifact"
    fi
  done
done 3< "$manifest"
echo "all $row rows byte-identical across their runs"
