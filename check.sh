#!/bin/sh
# Repository health check: build, vet, the full test suite under the race
# detector, the benchmark harness's own vet and tests, and a one-iteration
# benchmark smoke pass. This is the tier-1 gate plus the race/bench
# hygiene added with the parallel experiment engine; run it before
# sending a change.
#
# `./check.sh bench` instead records a benchmark snapshot: it runs the
# solver and serving benchmarks at measurement length and rewrites
# BENCH_gtpn.json (see cmd/ipcbench). Commit the refreshed file whenever
# a change is meant to move the solver or serving-path numbers.
#
# `./check.sh cluster` runs only the three-node cluster smoke,
# `./check.sh openloop` only the open-loop load smoke,
# `./check.sh obsv` only the observability smoke,
# `./check.sh slo` only the SLO/health-prober smoke, and
# `./check.sh fuzz` only the fuzz smoke — the same blocks the full gate
# runs.
#
# `./check.sh lines` prints the non-test Go line count of each serving-
# stack package, the core façade and ipcd, plus their total — the size
# figure a change reports before and after. It is not part of the gate.

if [ "${1:-}" = "lines" ]; then
    total=0
    for dir in internal/service internal/cluster internal/obs internal/trace \
        internal/ringbuf internal/core cmd/ipcd; do
        n=$(find "$dir" -maxdepth 1 -name '*.go' ! -name '*_test.go' -exec cat {} + | wc -l)
        printf '%-17s %6d\n' "$dir" "$n"
        total=$((total + n))
    done
    printf '%-17s %6d\n' total "$total"
    exit 0
fi

set -eux

if [ "${1:-}" = "bench" ]; then
    go run ./cmd/ipcbench -out BENCH_gtpn.json
    exit 0
fi

# Every file the smokes write lives in one directory: mktemp honours
# TMPDIR, and the directory goes on exit, so two gate runs on one host
# never share a path. A smoke's own EXIT trap stops its processes, then
# removes the directory too.
CHECK_TMP=$(mktemp -d)
remove_check_tmp() {
    rm -rf "$CHECK_TMP"
}
trap remove_check_tmp EXIT

# Fuzz smoke: every fuzz target runs briefly so a crasher or a broken
# corpus fails the gate long before a dedicated fuzzing run. This is the
# one list of targets, as package:target.
fuzz_smoke() {
    for target in \
        ./internal/gtpn:FuzzParseNet \
        ./internal/gtpn:FuzzDenseClassSolve \
        ./internal/core:FuzzLocalPointReuse \
        ./internal/service:FuzzSolveRequest \
        ./internal/service:FuzzClusterMerge \
        ./internal/service:FuzzRequestID \
        ./internal/trace:FuzzMergeRemote \
        ./internal/obs:FuzzParseObjective \
        ./internal/cluster:FuzzControlPlane; do
        go test "${target%%:*}" -run '^$' -fuzz "^${target#*:}\$" -fuzztime 20s
    done
}

# Cluster smoke: three real ipcd processes on loopback form a ring; the
# same solve through each node must answer byte-identical responses, a
# repeat of it through each node must be a fast-path answer at owner and
# non-owners alike — no forward and no cache miss (a non-owner serves
# the owner's answer it keeps) — the aggregated metrics view must see
# every member, a round-robin ipcload pass across all three must finish
# with zero errors and zero cross-node response mismatches (its digest
# is computed over bodies from every target), and after it every node's
# process solve cache must hold no entry (a served solve skips it).
cluster_smoke() {
    go build -o "$CHECK_TMP/ipcd" ./cmd/ipcd
    CLUSTER_PIDS=""
    cleanup_cluster() {
        for p in $CLUSTER_PIDS; do kill "$p" 2>/dev/null || true; done
        CLUSTER_PIDS=""
    }
    trap 'cleanup_cluster; remove_check_tmp' EXIT
    CLUSTER_PEERS="http://127.0.0.1:18081,http://127.0.0.1:18082,http://127.0.0.1:18083"
    for port in 18081 18082 18083; do
        "$CHECK_TMP/ipcd" -addr 127.0.0.1:$port -cluster-self "http://127.0.0.1:$port" -peers "$CLUSTER_PEERS" &
        CLUSTER_PIDS="$CLUSTER_PIDS $!"
    done
    for port in 18081 18082 18083; do
        i=0
        until curl -fsS "http://127.0.0.1:$port/healthz" >/dev/null 2>&1; do
            i=$((i + 1))
            test "$i" -lt 100
            sleep 0.1
        done
    done
    solve_body='{"arch":2,"conversations":1,"server_compute_us":1140}'
    for port in 18081 18082 18083; do
        curl -fsS -X POST -H 'Content-Type: application/json' -d "$solve_body" \
            "http://127.0.0.1:$port/v1/solve" >"$CHECK_TMP/cluster_solve_$port.json"
    done
    cmp "$CHECK_TMP/cluster_solve_18081.json" "$CHECK_TMP/cluster_solve_18082.json"
    cmp "$CHECK_TMP/cluster_solve_18081.json" "$CHECK_TMP/cluster_solve_18083.json"
    # Every node now holds the answer — its own compute, or the owner's
    # bytes kept from its forward or pushed to it — so the same solve
    # through every node again must be a fast-path answer everywhere: it
    # leaves each node's forwards_out and every "misses" count (response
    # cache and solve cache) as they were.
    repeat_counters() {
        for port in 18081 18082 18083; do
            curl -fsS "http://127.0.0.1:$port/metrics" | grep -oE '"(forwards_out|misses)":[0-9]+'
        done
    }
    counters_before=$(repeat_counters)
    for port in 18081 18082 18083; do
        curl -fsS -X POST -H 'Content-Type: application/json' -d "$solve_body" \
            "http://127.0.0.1:$port/v1/solve" | cmp - "$CHECK_TMP/cluster_solve_18081.json"
    done
    test "$(repeat_counters)" = "$counters_before"
    curl -fsS "http://127.0.0.1:18081/metrics?scope=cluster" | grep -q '"unreachable":\[\]'
    go run ./cmd/ipcload -targets "$CLUSTER_PEERS" -c 6 -duration 3s
    # Each node is its own process and solves only through its Systems,
    # which skip the process-global GTPN solve cache: after the load no
    # node keeps a solution there.
    for port in 18081 18082 18083; do
        curl -fsS "http://127.0.0.1:$port/metrics" | grep -oE '"gtpn_cache":\{[^}]*\}' | grep -qE '"entries":0[,}]'
    done
    cleanup_cluster
    trap remove_check_tmp EXIT
}

# Open-loop smoke: one real ipcd on loopback, driven by ipcload in
# open-loop mode. The summary line must report BOTH raw and
# coordinated-omission-corrected percentiles, and corrected must
# dominate raw — a request is never sent before its intended arrival
# time, so (completion - intended) >= (completion - send) pointwise.
openloop_smoke() {
    go build -o "$CHECK_TMP/ipcd" ./cmd/ipcd
    "$CHECK_TMP/ipcd" -addr 127.0.0.1:18091 &
    OPENLOOP_PID=$!
    cleanup_openloop() {
        kill "$OPENLOOP_PID" 2>/dev/null || true
    }
    trap 'cleanup_openloop; remove_check_tmp' EXIT
    i=0
    until curl -fsS "http://127.0.0.1:18091/healthz" >/dev/null 2>&1; do
        i=$((i + 1))
        test "$i" -lt 100
        sleep 0.1
    done
    go run ./cmd/ipcload -addr http://127.0.0.1:18091 -rate 200 -c 4 -duration 3s | tee "$CHECK_TMP/openloop.out"
    grep -q '"p50_raw_us"' "$CHECK_TMP/openloop.out"
    grep -q '"p50_corrected_us"' "$CHECK_TMP/openloop.out"
    raw=$(sed -n 's/.*"p50_raw_us":\([0-9][0-9]*\).*/\1/p' "$CHECK_TMP/openloop.out")
    corr=$(sed -n 's/.*"p50_corrected_us":\([0-9][0-9]*\).*/\1/p' "$CHECK_TMP/openloop.out")
    test -n "$raw"
    test -n "$corr"
    awk -v c="$corr" -v r="$raw" 'BEGIN { exit (c + 0 >= r + 0 && r + 0 >= 0) ? 0 : 1 }'
    cleanup_openloop
    trap remove_check_tmp EXIT
}

# Observability smoke: a three-node cluster with per-request tracing,
# JSON access logs and request rings. One solve pushed through a
# follower must (a) leave a merged Chrome trace on the follower whose
# span lanes cover BOTH nodes of the hop, (b) appear in both nodes'
# JSON access logs under the SAME request ID, and (c) show up in the
# cluster-merged /debug/requests view with its routing decision.
obsv_smoke() {
    go build -o "$CHECK_TMP/ipcd" ./cmd/ipcd
    OBSV_DIR="$CHECK_TMP/obsv"
    mkdir "$OBSV_DIR"
    OBSV_PIDS=""
    cleanup_obsv() {
        for p in $OBSV_PIDS; do kill "$p" 2>/dev/null || true; done
        OBSV_PIDS=""
    }
    trap 'cleanup_obsv; remove_check_tmp' EXIT
    OBSV_PEERS="http://127.0.0.1:18101,http://127.0.0.1:18102,http://127.0.0.1:18103"
    for port in 18101 18102 18103; do
        "$CHECK_TMP/ipcd" -addr 127.0.0.1:$port -cluster-self "http://127.0.0.1:$port" \
            -peers "$OBSV_PEERS" -cluster-replicas -1 -node-name "n$port" \
            -log-format json -trace-dir "$OBSV_DIR/t$port" -trace-every 1 \
            2>"$OBSV_DIR/log$port.json" &
        OBSV_PIDS="$OBSV_PIDS $!"
    done
    for port in 18101 18102 18103; do
        i=0
        until curl -fsS "http://127.0.0.1:$port/healthz" >/dev/null 2>&1; do
            i=$((i + 1))
            test "$i" -lt 100
            sleep 0.1
        done
    done
    # The same solve through every node: exactly one owns the key, the
    # other two forward (replication is off, so no replica shortcut).
    solve_body='{"arch":2,"conversations":1,"server_compute_us":1140}'
    for port in 18101 18102 18103; do
        curl -fsS -X POST -H 'Content-Type: application/json' -d "$solve_body" \
            "http://127.0.0.1:$port/v1/solve" >/dev/null
    done
    forwarder=""
    for port in 18101 18102 18103; do
        if curl -fsS "http://127.0.0.1:$port/metrics" | grep -q '"forward_served":[1-9]'; then
            forwarder=$port
            break
        fi
    done
    test -n "$forwarder"
    # (a) The forwarder's trace merges the owner's spans: two process
    # lanes (pid 0 local, pid 1 remote) and the owner-side serve span.
    tracefile=$(ls "$OBSV_DIR/t$forwarder"/req-*-solve.json | head -1)
    test "$(grep -o '"pid":[0-9]*' "$tracefile" | sort -u | wc -l)" -ge 2
    grep -q '"name":"peer.rtt"' "$tracefile"
    grep -q '"name":"admission.wait"' "$tracefile"
    # (b) Both nodes' access logs are valid JSON and share the request
    # ID the forwarder minted.
    cat >"$CHECK_TMP/obsv_checklog.go" <<'EOF'
// Smoke helper: every line of each file must parse as JSON. With -id,
// at least one access record carrying that id must appear in EVERY
// file; with -print, the first solve access record's id is printed.
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"os"
)

func main() {
	id := flag.String("id", "", "require an access record with this id in every file")
	print := flag.Bool("print", false, "print the first solve access record's id")
	flag.Parse()
	for _, path := range flag.Args() {
		f, err := os.Open(path)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		found := false
		sc := bufio.NewScanner(f)
		for sc.Scan() {
			var m map[string]any
			if err := json.Unmarshal(sc.Bytes(), &m); err != nil {
				fmt.Fprintf(os.Stderr, "%s: not JSON: %v: %s\n", path, err, sc.Text())
				os.Exit(1)
			}
			if m["msg"] != "access" {
				continue
			}
			if *print && m["route"] == "solve" {
				fmt.Println(m["id"])
				return
			}
			if *id != "" && m["id"] == *id {
				found = true
			}
		}
		f.Close()
		if *id != "" && !found {
			fmt.Fprintf(os.Stderr, "%s: no access record with id %q\n", path, *id)
			os.Exit(1)
		}
	}
}
EOF
    req_id=$(go run "$CHECK_TMP/obsv_checklog.go" -print "$OBSV_DIR/log$forwarder.json")
    test -n "$req_id"
    # The ID must appear in the forwarder's log AND in at least one other
    # node's log (the owner inherited it on the forwarded hop).
    go run "$CHECK_TMP/obsv_checklog.go" -id "$req_id" "$OBSV_DIR/log$forwarder.json"
    others=0
    for port in 18101 18102 18103; do
        if [ "$port" != "$forwarder" ] &&
            go run "$CHECK_TMP/obsv_checklog.go" -id "$req_id" "$OBSV_DIR/log$port.json" 2>/dev/null; then
            others=$((others + 1))
        fi
    done
    test "$others" -ge 1
    # (c) The cluster-merged request ring records the routing decision.
    curl -fsS "http://127.0.0.1:$forwarder/debug/requests?scope=cluster" |
        grep -q '"decision":"forwarded"'
    # (d) A trace never reroutes a request: with every request traced,
    # the fleet computed the point once, and a traced repeat through each
    # node, shaped like a peer's forward (an inherited request ID and
    # X-Ipcd-Trace), is a cache hit on every node.
    cluster_leaders() {
        curl -fsS "http://127.0.0.1:18101/metrics?scope=cluster" |
            grep -o '"totals":{[^}]*}' | grep -o '"leaders":[0-9]*'
    }
    test "$(cluster_leaders)" = '"leaders":1'
    for port in 18101 18102 18103; do
        curl -fsS -X POST -H 'Content-Type: application/json' \
            -H 'X-Ipcd-Request-Id: obsv-1' -H 'X-Ipcd-Trace: 1' -d "$solve_body" \
            "http://127.0.0.1:$port/v1/solve" >/dev/null
    done
    test "$(cluster_leaders)" = '"leaders":1'
    # The load client's machine-readable summary stays parseable.
    go run ./cmd/ipcload -json -addr "http://127.0.0.1:18101" -c 2 -duration 1s |
        grep -q '"digest":"'
    cleanup_obsv
    trap remove_check_tmp EXIT
}

# SLO / health-prober smoke: a three-node cluster with SLO tracking and
# fast peer probing, driven by an open-loop ipcload pass. Killing one
# node hard (SIGKILL — a crash, not a graceful leave) must flip it to
# unreachable in the survivors' ipctop fleet snapshot within the probe
# hysteresis bound, the survivors' merged event journal must record the
# peer_health transitions, and the SLO windows must hold the load's
# samples.
slo_smoke() {
    go build -o "$CHECK_TMP/ipcd" ./cmd/ipcd
    go build -o "$CHECK_TMP/ipctop" ./cmd/ipctop
    SLO_PIDS=""
    cleanup_slo() {
        for p in $SLO_PIDS; do kill -9 "$p" 2>/dev/null || true; done
        SLO_PIDS=""
    }
    trap 'cleanup_slo; remove_check_tmp' EXIT
    SLO_PEERS="http://127.0.0.1:18111,http://127.0.0.1:18112,http://127.0.0.1:18113"
    for port in 18111 18112 18113; do
        "$CHECK_TMP/ipcd" -addr 127.0.0.1:$port -cluster-self "http://127.0.0.1:$port" \
            -peers "$SLO_PEERS" -node-name "n$port" -probe-every 200ms \
            -slo "route=solve,p=99,lat=50ms" &
        SLO_PIDS="$SLO_PIDS $!"
        eval "SLO_PID_$port=$!"
    done
    for port in 18111 18112 18113; do
        i=0
        until curl -fsS "http://127.0.0.1:$port/healthz" >/dev/null 2>&1; do
            i=$((i + 1))
            test "$i" -lt 100
            sleep 0.1
        done
    done
    # Open-loop load across the fleet; the JSON summary must carry the
    # per-second throughput timeline.
    go run ./cmd/ipcload -targets "$SLO_PEERS" -rate 150 -c 3 -duration 3s -json >"$CHECK_TMP/slo_load.json"
    grep -q '"timeline":\[{' "$CHECK_TMP/slo_load.json"
    # Crash one node (SIGKILL: no drain, no ring leave) and wait for the
    # survivors' probers to walk it to unreachable.
    kill -9 "$SLO_PID_18113"
    SLO_SURVIVORS="http://127.0.0.1:18111,http://127.0.0.1:18112"
    i=0
    until "$CHECK_TMP/ipctop" -targets "$SLO_SURVIVORS" -once -json |
        grep -q '"state":"unreachable"'; do
        i=$((i + 1))
        test "$i" -lt 50
        sleep 0.2
    done
    "$CHECK_TMP/ipctop" -targets "$SLO_PEERS" -once -json >"$CHECK_TMP/slo_top.json"
    grep -q '"reachable":false' "$CHECK_TMP/slo_top.json"            # the dead target
    grep -q '"type":"peer_health"' "$CHECK_TMP/slo_top.json"         # survivor events
    grep -q '"window":"1m"' "$CHECK_TMP/slo_top.json"                # SLO windows...
    grep -q '"total":[1-9]' "$CHECK_TMP/slo_top.json"                # ...populated
    grep -q '"name":"solve:p99:lat50ms"' "$CHECK_TMP/slo_top.json"   # the -slo flag's objective
    cleanup_slo
    trap remove_check_tmp EXIT
}

if [ "${1:-}" = "cluster" ]; then
    cluster_smoke
    exit 0
fi

if [ "${1:-}" = "slo" ]; then
    slo_smoke
    exit 0
fi

if [ "${1:-}" = "obsv" ]; then
    obsv_smoke
    exit 0
fi

if [ "${1:-}" = "openloop" ]; then
    openloop_smoke
    exit 0
fi

if [ "${1:-}" = "fuzz" ]; then
    fuzz_smoke
    exit 0
fi

go build ./...
go vet ./...
# The benchmark harness is a module of its own (ipcdbench/go.mod), so the
# steps above never compile it. Vet and test it here, so that a change to
# an API it calls (service.SolveKey, cluster.Node.Route/OwnerOf/Stats,
# Server.MetricsJSON) fails the gate instead of the benchmark run.
(cd ipcdbench && go vet . && go test .)
# internal/models alone needs ~9 minutes under the race detector on a
# single CPU, right against go test's default 10-minute per-package
# timeout — give the suite explicit headroom so a loaded runner doesn't
# flake.
go test -race -timeout 30m ./...
# Coverage floors: print per-package coverage and hold the contract-
# bearing packages at their recorded floors — internal/gtpn (the
# exactness contract), internal/service (the serving/coalescing
# contract), internal/cluster (the routing byte-identity contract).
# Raise a floor when coverage genuinely improves; never lower one to
# make a change pass.
GTPN_COVER_FLOOR=89
SERVICE_COVER_FLOOR=88
CLUSTER_COVER_FLOOR=84
# The copy goes to stderr through the inherited descriptor: tee
# /dev/stderr would reopen a redirected log by path and truncate it, and
# a pipeline would hide go test's exit status (sh has no pipefail).
cover_status=0
cover_out=$(go test -cover ./...) || cover_status=$?
printf '%s\n' "$cover_out" >&2
test "$cover_status" -eq 0
check_floor() {
    pkg=$1
    floor=$2
    got=$(printf '%s\n' "$cover_out" | awk -v p="$pkg" '$2 ~ p"$" { for (i=1;i<=NF;i++) if ($i ~ /^[0-9.]+%$/) { sub(/%/,"",$i); print $i; exit } }')
    test -n "$got"
    awk -v c="$got" -v f="$floor" 'BEGIN { exit (c+0 >= f+0) ? 0 : 1 }' || {
        echo "check.sh: ${pkg} coverage ${got}% fell below the ${floor}% floor" >&2
        exit 1
    }
}
check_floor 'internal/gtpn' "$GTPN_COVER_FLOOR"
check_floor 'internal/service' "$SERVICE_COVER_FLOOR"
check_floor 'internal/cluster' "$CLUSTER_COVER_FLOOR"
fuzz_smoke
go test -run '^$' -bench . -benchtime 1x . ./internal/gtpn ./internal/service
# The benchmark recorder itself must stay runnable (parse + schema).
go run ./cmd/ipcbench -benchtime 1x -bench 'ResolveInstant' -out /dev/null
# Performance regression gate: fresh measurements against the committed
# baseline. ns/op is compared only when the environment matches the
# baseline's; allocs/op always. Refresh the baseline with
# `./check.sh bench` when a change is meant to move the numbers.
go run ./cmd/ipcbench -compare BENCH_gtpn.json -tolerance 0.25
# Observability smoke: the hardware performance-counter report renders
# (the Prometheus exposition and history ring are covered by the
# internal/service unit tests above).
go run ./cmd/ipcsim -arch 2 -n 2 -x 1140 -seconds 1 -counters | grep -q 'res.node0.host0.busy'
cluster_smoke
openloop_smoke
obsv_smoke
slo_smoke
