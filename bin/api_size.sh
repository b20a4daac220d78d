#!/bin/sh
# Size of the library: total lines of lib/**/*.ml + lib/**/*.mli, and the
# number of public values (lines matching '^ *val ' in lib/**/*.mli).
#
# Usage: bin/api_size.sh
set -eu

cd "$(dirname "$0")/.."
lines=$(find lib -name '*.ml' -o -name '*.mli' | xargs cat | wc -l)
vals=$(find lib -name '*.mli' | xargs grep -h '^ *val ' | wc -l)
echo "lib: $lines lines, $vals public vals"
