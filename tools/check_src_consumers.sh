#!/usr/bin/env bash
# Lists every header under src/qnet/ that nothing outside the tests includes, and fails
# unless that list equals the committed allowlist (tools/src_consumers_allowlist.txt).
#
# "Outside the tests" means src/ (other than the header's own .cc), bench/, examples/ and
# pipebench/. A header that only tests include is a module that exists only for its own
# test: delete it with its suite, give it a real consumer, or allowlist it with a reason.
#
# Usage: tools/check_src_consumers.sh     (from any directory; exit 0 = list matches)
set -euo pipefail

root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
cd "$root"
allowlist=tools/src_consumers_allowlist.txt

unconsumed() {
  local path header own_cc users user used
  find src/qnet -name '*.h' | sort | while read -r path; do
    header=${path#src/}
    own_cc=${path%.h}.cc
    users=$(grep -rlF --include='*.h' --include='*.cc' "#include \"$header\"" \
      src bench examples pipebench || true)
    used=0
    for user in $users; do
      if [[ "$user" != "$own_cc" ]]; then
        used=1
        break
      fi
    done
    if [[ $used -eq 0 ]]; then
      echo "$header"
    fi
  done
}

# Every allowlist entry carries its reason after '#'.
if grep -vE '^[[:space:]]*(#|$)' "$allowlist" | grep -vq '#'; then
  echo "check_src_consumers: every entry in $allowlist needs a '# reason'" >&2
  exit 1
fi

expected=$(sed -e 's/#.*//' -e 's/[[:space:]]*$//' "$allowlist" | grep -v '^$' | sort)
actual=$(unconsumed)
if [[ "$actual" != "$expected" ]]; then
  echo "check_src_consumers: headers without a non-test consumer differ from $allowlist" >&2
  diff <(echo "$expected") <(echo "$actual") | sed -e 's/^</  allowlisted but consumed (or gone):/' \
    -e 's/^>/  unconsumed and not allowlisted:/' | grep -v -e '^[0-9]' -e '^---$' >&2
  exit 1
fi
echo "check_src_consumers: $(echo "$actual" | grep -c .) allowlisted headers, no others unconsumed"
