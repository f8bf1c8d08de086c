#!/usr/bin/env bash
# Docs link-check + markdown lint (CI's docs leg; run locally from the
# repo root: tools/check_docs.sh).
#
#  - every relative markdown link in README.md and docs/*.md must
#    resolve to an existing file or directory;
#  - every backticked repo path (`src/...`, `tests/...`, `tools/...`,
#    `bench/...`, `examples/...`, `docs/...`) must exist; a brace form
#    (`a.{h,cc}`) must exist in every alternative and a glob form
#    (`a.*`) must match at least one file;
#  - lint: no trailing whitespace, no tab characters, balanced fenced
#    code blocks, exactly one top-level H1 per file.
set -u

fail=0
err() {
  echo "check_docs: $*" >&2
  fail=1
}

files=(README.md docs/*.md)

for f in "${files[@]}"; do
  [ -f "$f" ] || { err "missing doc file: $f"; continue; }
  dir=$(dirname "$f")

  # --- Relative link targets must exist -----------------------------
  # Extract (target) parts of [text](target) links, one per line.
  while IFS= read -r target; do
    case "$target" in
      http://*|https://*|mailto:*|\#*) continue ;;
    esac
    path="${target%%#*}"
    [ -n "$path" ] || continue
    if [ ! -e "$dir/$path" ] && [ ! -e "$path" ]; then
      err "$f: broken link -> $target"
    fi
  done < <(grep -oE '\[[^]]*\]\([^)]+\)' "$f" | sed -E 's/.*\(([^)]+)\)/\1/')

  # --- Backticked repo paths must exist ----------------------------
  # The path is the code span's first word, minus a :line suffix.
  while IFS= read -r span; do
    ref="${span%% *}"
    ref="${ref%%:*}"
    candidates=("$ref")
    if [[ "$ref" =~ ^([^{]*)\{([^}]*)\}(.*)$ ]]; then
      candidates=()
      IFS=, read -ra alternatives <<< "${BASH_REMATCH[2]}"
      for alt in "${alternatives[@]}"; do
        candidates+=("${BASH_REMATCH[1]}${alt}${BASH_REMATCH[3]}")
      done
    fi
    for path in "${candidates[@]}"; do
      if ! compgen -G "$path" >/dev/null; then
        err "$f: missing repo path -> $span"
      fi
    done
  done < <(grep -oE '`(src|tests|tools|bench|examples|docs)/[^`]*`' "$f" |
           tr -d '`' | sort -u)

  # --- Lint ---------------------------------------------------------
  if grep -nE ' +$' "$f" >/dev/null; then
    err "$f: trailing whitespace on line(s): $(grep -cE ' +$' "$f")"
  fi
  if grep -nP '\t' "$f" >/dev/null; then
    err "$f: tab character(s) found"
  fi
  fences=$(grep -cE '^```' "$f")
  if [ $((fences % 2)) -ne 0 ]; then
    err "$f: unbalanced fenced code blocks ($fences fence lines)"
  fi
  h1s=$(grep -cE '^# ' "$f")
  if [ "$h1s" -ne 1 ]; then
    err "$f: expected exactly one top-level '# ' heading, found $h1s"
  fi
done

if [ "$fail" -ne 0 ]; then
  echo "check_docs: FAILED" >&2
  exit 1
fi
echo "check_docs: OK (${#files[@]} files)"
