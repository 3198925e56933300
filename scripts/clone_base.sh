# Sourced by bench_ab.sh and bench_diff.sh.
#
# clone_base <rev> <dir>: checks <rev> out, detached, in a shared
# `git clone` of this repository at <dir> (the objects stay in this
# repository; nothing is written into its working tree). Prints the full
# commit id. Callers run it inside $(...), where errexit is off, so every
# step returns on failure and a bad <rev> fails the caller's assignment.
clone_base() {
  local sha top
  sha="$(git rev-parse --verify --quiet "$1^{commit}")" ||
    { echo "clone_base: unknown revision '$1'" >&2; return 1; }
  top="$(git rev-parse --show-toplevel)" || return 1
  git clone -q --shared --no-checkout "$top" "$2" || return 1
  git -C "$2" checkout -q --detach "$sha" || return 1
  echo "$sha"
}
