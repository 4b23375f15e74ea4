#!/usr/bin/env bash
# Checks that an mzbw command rewrites its outputs byte for byte.
#
#   rerun-identical.sh LABEL "BACKEND..." MZBW-ARGUMENT...
#
# For each backend, runs `mzbw MZBW-ARGUMENT... --backend BACKEND` twice, into
# LABEL-BACKEND-first and LABEL-BACKEND-second under the working directory,
# prints the sha256 of every file the first run wrote, and fails unless the
# second run wrote the same files with the same sha256.
set -euo pipefail
label=$1
backends=$2
shift 2
for backend in $backends; do
  for run in first second; do
    out="$label-$backend-$run"
    mzbw "$@" --backend "$backend" --out "$out"
    (cd "$out" && find . -type f | sort | xargs sha256sum) > "$out.sha256"
  done
  cat "$label-$backend-first.sha256"
  diff "$label-$backend-first.sha256" "$label-$backend-second.sha256"
done
