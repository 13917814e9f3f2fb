#!/usr/bin/env bash
# Format gate: clang-format --dry-run -Werror over every C++ source in the
# repo, against the checked-in .clang-format. Exits 0 with a SKIP message
# when clang-format is not installed (developer laptops without LLVM); CI
# installs it and gets the real check. Override the binary with
# CLANG_FORMAT=clang-format-18 etc.
#
#   tools/check_format.sh [clang-format args...]

set -euo pipefail

ROOT="$(cd "$(dirname "$0")/.." && pwd)"
cd "$ROOT"

CLANG_FORMAT="${CLANG_FORMAT:-clang-format}"
if ! command -v "$CLANG_FORMAT" > /dev/null 2>&1; then
  echo "check_format: SKIP — $CLANG_FORMAT not found (set CLANG_FORMAT or install clang-format)"
  exit 0
fi

mapfile -t FILES < <(find src harness tests bench tools examples \
  \( -name '*.cc' -o -name '*.h' -o -name '*.cpp' \) | sort)

if [[ ${#FILES[@]} -eq 0 ]]; then
  echo "check_format: FAIL — no sources found (run from the repo root?)"
  exit 2
fi

echo "check_format: checking ${#FILES[@]} files with $("$CLANG_FORMAT" --version)"
if "$CLANG_FORMAT" --dry-run -Werror "$@" "${FILES[@]}"; then
  echo "check_format: OK"
else
  echo "check_format: FAIL — run: $CLANG_FORMAT -i <files> to fix"
  exit 1
fi
