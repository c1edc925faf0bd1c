#!/usr/bin/env bash
# tools/ci-lint.sh — the lint gate CI runs on every PR.
#
# Usage: tools/ci-lint.sh [outdir]       (default outdir: lint-out)
#
# Always runs the toolchain-only core: gofmt, go vet and sacslint (the
# repo's own analyzer suite, with a SARIF copy of the findings for
# code-scanning UIs).
# When the pinned external tools are on PATH — CI installs them first, see
# .github/workflows/ci.yml — it also runs staticcheck and govulncheck,
# failing on NEW findings only: anything listed in tools/lint-baseline.txt
# is pre-existing and tolerated, so adopting a new tool version never
# blocks unrelated PRs, while regressions always do. Local runs without
# the tools (or without network to install them) still get the full core.
set -euo pipefail
cd "$(dirname "$0")/.."

out="${1:-lint-out}"
mkdir -p "$out"
baseline="tools/lint-baseline.txt"

echo "==> gofmt"
unformatted="$(gofmt -l .)"
if [ -n "$unformatted" ]; then
  echo "gofmt: these files need formatting (run gofmt -w):" >&2
  echo "$unformatted" >&2
  exit 1
fi

echo "==> go vet"
go vet ./...

echo "==> sacslint"
go run ./cmd/sacslint -sarif "$out/sacslint.sarif" ./... | tee "$out/sacslint.txt"

if command -v staticcheck >/dev/null 2>&1; then
  echo "==> staticcheck"
  staticcheck ./... > "$out/staticcheck.txt" || true
  fresh="$(grep -vxF -f "$baseline" "$out/staticcheck.txt" | grep -v '^[[:space:]]*$' || true)"
  if [ -n "$fresh" ]; then
    echo "staticcheck: new findings (not in $baseline):" >&2
    echo "$fresh" >&2
    exit 1
  fi
else
  echo "==> staticcheck: not on PATH, skipped (CI installs the pinned version)"
fi

if command -v govulncheck >/dev/null 2>&1; then
  echo "==> govulncheck"
  if ! govulncheck ./... > "$out/govulncheck.txt" 2>&1; then
    # Gate on vulnerability IDs, not output text: the report prose changes
    # between versions, the GO-YYYY-NNNN IDs do not.
    fresh_ids="$(grep -oE 'GO-[0-9]{4}-[0-9]+' "$out/govulncheck.txt" | sort -u | grep -vxF -f "$baseline" || true)"
    if [ -n "$fresh_ids" ]; then
      echo "govulncheck: new vulnerabilities (not in $baseline):" >&2
      echo "$fresh_ids" >&2
      cat "$out/govulncheck.txt" >&2
      exit 1
    fi
    echo "govulncheck: only baselined vulnerabilities, tolerated"
  fi
else
  echo "==> govulncheck: not on PATH, skipped (CI installs the pinned version)"
fi

echo "lint gate passed"
