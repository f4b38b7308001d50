# Helpers shared by the smoke scripts. Source it from the repo root once
# WORKDIR is set:
#
#   source scripts/lib.sh
#
# It installs an EXIT trap that stops every server the script left
# running and removes $WORKDIR.

SMOKE_NAME="$(basename "$0" .sh)"

fail() { echo "$SMOKE_NAME: $1" >&2; exit 1; }

# Polls the /healthz of the server at $1 for up to ~5 s.
wait_up() {
  for _ in $(seq 1 50); do
    if curl -sf "http://$1/healthz" >/dev/null 2>&1; then
      return 0
    fi
    sleep 0.1
  done
  fail "server at $1 never came up"
}

# Prints one scalar field ($2) of the /healthz body of the server at $1.
healthz_field() {
  curl -sf "http://$1/healthz" | sed -E "s/.*\"$2\":\"?([^\",}]+)\"?.*/\1/"
}

# Kills every background job still running, then waits for each of them
# before removing the workdir: otherwise a back-to-back run finds the
# ports still bound and a draining server's final snapshot has nowhere
# to land.
cleanup() {
  local pids
  pids="$(jobs -pr)"
  if [[ -n "$pids" ]]; then
    # shellcheck disable=SC2086 # one PID per word
    kill $pids 2>/dev/null || true
  fi
  wait || true
  rm -rf "$WORKDIR"
}
trap cleanup EXIT
