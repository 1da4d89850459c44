#!/usr/bin/env bash
# Hash the artifacts of the byte-identity contract: `disnes run-main` for
# seeds 1-5 and the default `disnes run-ablation`, each with its stdout.
#
# Usage: tools/artifact_hash.sh [CHECKOUT]   (default: this script's own)
#
# The runs go to a fresh temporary directory under fixed relative paths,
# because config.txt echoes --out: runs/main_seed{N}/ and runs/ablation/,
# with stdout in runs/main_seed{N}.stdout and runs/ablation.stdout.  The
# script prints the file count (78) and one sha256 over the sorted
# `sha256sum` lines of all the files.  It takes about 40 s on two cores.
set -euo pipefail

checkout=$(cd "${1:-$(dirname "$0")/..}" && pwd)
work=$(mktemp -d)
trap 'rm -rf "$work"' EXIT
cd "$work"
mkdir runs

disnes() { PYTHONPATH="$checkout/src" python3 -m disnes.cli "$@"; }

for seed in 1 2 3 4 5; do
    disnes run-main --seed "$seed" --out "runs/main_seed$seed" \
        > "runs/main_seed$seed.stdout"
done
disnes run-ablation --out runs/ablation > runs/ablation.stdout

find runs -type f | LC_ALL=C sort > files.txt
echo "files: $(wc -l < files.txt)"
echo "sha256: $(xargs sha256sum < files.txt | LC_ALL=C sort | sha256sum \
    | cut -d' ' -f1)"
