# Offline-only developer entry points; CI (.github/workflows/ci.yml)
# runs the same `check` sequence.

CARGO ?= cargo

.PHONY: check fmt clippy doc build test perfbench-test examples experiments experiments-check trace-smoke tcp-smoke stress chaos overload scrape-smoke soak-smoke failover tamper bench-json bench-diff bench-gate unsafe-check loc

check: fmt clippy unsafe-check doc test perfbench-test examples experiments-check trace-smoke tcp-smoke chaos overload scrape-smoke soak-smoke failover tamper

fmt:
	$(CARGO) fmt --all -- --check

clippy:
	$(CARGO) clippy --workspace --all-targets --offline -- -D warnings

# The workspace's three lint exemptions for unsafe code are the SHA-256
# dispatch into the SHA-NI kernel, the ADX Montgomery kernel module and
# the CRC-32 dispatch into the PCLMULQDQ folding kernel: fail unless
# allow(unsafe_code) appears exactly once in each of
# crates/crypto/src/sha256.rs, crates/crypto/src/bigint.rs and
# crates/crypto/src/crc32.rs and nowhere else under crates/.
UNSAFE_ALLOWED := crates/crypto/src/sha256.rs crates/crypto/src/bigint.rs crates/crypto/src/crc32.rs

unsafe-check:
	@outside=$$(grep -rl --include='*.rs' 'allow(unsafe_code)' crates | grep -vxF $(UNSAFE_ALLOWED:%=-e %)); \
	if [ -n "$$outside" ]; then \
		echo "unsafe-check: allow(unsafe_code) is only for $(UNSAFE_ALLOWED); found in:" $$outside; \
		exit 1; \
	fi; \
	for f in $(UNSAFE_ALLOWED); do \
		n=$$(grep -c 'allow(unsafe_code)' $$f); \
		if [ "$$n" -ne 1 ]; then \
			echo "unsafe-check: expected allow(unsafe_code) once in $$f, found $$n"; \
			exit 1; \
		fi; \
	done

# Non-test code lines per crate and in total: each crates/*/src/**/*.rs
# file up to its first line containing #[cfg(test)], blank and //
# lines dropped. A size report, not a gate.
loc:
	@find crates/*/src -name '*.rs' | sort | xargs awk ' \
		FNR == 1 { on = 1; split(FILENAME, p, "/"); c = p[2] } \
		/#\[cfg\(test\)\]/ { on = 0 } \
		on && !/^[ \t]*(\/\/|$$)/ { n[c]++; total++ } \
		END { for (c in n) printf "%-8s %6d\n", c, n[c] | "sort"; close("sort"); \
			printf "%-8s %6d\n", "total", total }'

doc:
	RUSTDOCFLAGS="-D warnings" $(CARGO) doc --workspace --no-deps --offline

build:
	$(CARGO) build --workspace --release --offline

test:
	$(CARGO) test --workspace --release --offline -q

# perfbench is its own Cargo package, outside the workspace: build it
# and run its self-tests so a library API change that breaks the
# benchmark fails here rather than only in a benchmark run.
perfbench-test:
	$(CARGO) test --release --offline --manifest-path perfbench/Cargo.toml

trace-smoke:
	$(CARGO) run -p alidrone-sim --release --offline --bin exp_trace

# Loopback-only: submits a scenario PoA over 127.0.0.1 TCP and checks
# byte parity with the in-process transport. No external network.
tcp-smoke:
	$(CARGO) run -p alidrone-sim --release --offline --bin exp_tcp

# The networked-auditor stress test on its own (it also runs in `test`).
stress:
	$(CARGO) test --release --offline --test wire_concurrency -q

# Seeded chaos campaign (fixed seeds, deterministic replay, offline)
# plus the on-disk crash-recovery smoke. Also runs inside `test`.
chaos:
	$(CARGO) test --release --offline --test chaos -q
	$(CARGO) run --release --offline --example crash_recovery

# Overload-protection campaign (bounded admission queue, deadline
# shedding, rate limiting) plus the 4x-load TCP smoke. The campaign
# also runs inside `test`.
overload:
	$(CARGO) test --release --offline --test overload -q
	$(CARGO) run -p alidrone-sim --release --offline --bin exp_tcp -- --overload

# Live-introspection smoke: the overload burst with the scrape endpoint
# mounted; the binary fetches its own /metrics and asserts on it.
scrape-smoke:
	$(CARGO) run -p alidrone-sim --release --offline --bin exp_tcp -- --overload --scrape

# Runs `exp_soak --smoke` with extra flags $(2), keeps its stdout in
# target/soak_$(1).stdout, and diffs the determinism signature it prints
# (its `signature: ` lines) against crates/sim/golden/soak_$(1).sig.
# Regenerate a golden only after an intended change to what a soak
# issues or how it is judged, and say why in CHANGES.md.
define soak_check
	@mkdir -p target
	$(CARGO) run -p alidrone-sim --release --offline --bin exp_soak -- --smoke $(2) > target/soak_$(1).stdout || { cat target/soak_$(1).stdout; exit 1; }
	@cat target/soak_$(1).stdout
	sed -n 's/^signature: //p' target/soak_$(1).stdout | diff -u crates/sim/golden/soak_$(1).sig -
endef

# Fleet soak smoke (~200 drones, two seeded runs, well under a minute):
# staged load against the TCP auditor with SLO verdicts judged from
# scraped windows. Asserts the chaos phase breaches, healthy phases
# pass, verdicts are identical across both runs and match the golden
# signature, and the written target/SOAK_report.json machine-checks
# after a disk round trip.
soak-smoke:
	$(call soak_check,smoke,--out target/SOAK_report.json)

# Kill-the-primary failover gate: tests/failover.rs — a widened
# replication chaos campaign (400 seeds by default, against the 40 of
# `cargo test`; FAILOVER_SEEDS overrides) whose reference replays the
# ops the primary wrote (every op but those refused unwritten with
# Overloaded) and whose served-head invariant
# requires every signed tree head the dead primary served to extend to
# the promoted primary's head at promotion, and every served head to
# extend to the final primary's head, the leader-completeness regression
# test, a_failed_quorum_write_is_never_served, the restart regression tests
# (promotion_after_a_compacted_follower_restart_keeps_every_acked_record,
# promotion_passes_over_a_follower_whose_image_is_corrupt,
# promotion_passes_over_a_compacted_follower_that_lost_its_snapshot) and
# armed_cluster_survives_promotion (boot by repl::arm), all promoting
# through repl::promote, and the pending-write tests
# (a_lost_quorum_holds_one_write_and_refuses_the_rest_unwritten,
# a_compaction_after_the_link_heals_commits_the_pending_write) — then the replicated soak with its kill-and-promote
# phase (signature diffed against its golden; report lands in
# target/SOAK_failover_report.json for CI to archive), and the
# end-to-end failover example.
failover:
	FAILOVER_SEEDS=$(or $(FAILOVER_SEEDS),400) $(CARGO) test --release --offline --test failover -q
	$(call soak_check,failover,--failover --out target/SOAK_failover_report.json)
	$(CARGO) run --release --offline --example failover

# Tamper-evidence gate: the seeded tamper-injection campaign against
# the hash-chained audit log (TAMPER_SEEDS trims the default 40 seeds;
# every arm — bit flips, reorders, drops, rewrites, checkpoint-root
# forgeries, replication splices — must be detected, never silently
# accepted), then the tamper-mode soak where every drone verifies tree
# heads and inclusion/consistency proofs offline (signature diffed
# against its golden; report lands in target/SOAK_tamper_report.json
# for CI to archive).
tamper:
	TAMPER_SEEDS=$(or $(TAMPER_SEEDS),12) $(CARGO) test --release --offline --test tamper -q
	$(call soak_check,tamper,--tamper --out target/SOAK_tamper_report.json)

# Regenerate the persistent perf baseline (BENCH_poa.json at the repo
# root). BENCH_POA_SAMPLES trades precision for wall time.
bench-json:
	$(CARGO) run -p alidrone-bench --release --offline --bin bench_poa

# Compare a fresh run against the committed baseline without touching
# it. Exits non-zero when a case's median regresses past the threshold
# (default 25%); pass BENCH_GATE=prefix,prefix to narrow which cases
# can fail, as CI does for the crypto fast path.
bench-diff:
	$(CARGO) run -p alidrone-bench --release --offline --bin bench_poa -- --out target/BENCH_poa.new.json
	$(CARGO) run -p alidrone-bench --release --offline --bin bench_poa -- --diff BENCH_poa.json target/BENCH_poa.new.json $(if $(BENCH_GATE),--gate $(BENCH_GATE))

# CI's perf gate: a fresh run into target/BENCH_poa.ci.json, diffed
# against the committed baseline. A gated case (the CPU-bound ones
# named by the --gate prefixes) whose median regresses more than 25%,
# or that is missing from the fresh run, fails; the other cases print
# as advisory. CI sets BENCH_POA_SAMPLES=5.
bench-gate:
	$(CARGO) run -p alidrone-bench --release --offline --bin bench_poa -- --out target/BENCH_poa.ci.json
	$(CARGO) run -p alidrone-bench --release --offline --bin bench_poa -- --diff BENCH_poa.json target/BENCH_poa.ci.json --threshold 0.25 --gate rsa_sign_,rsa_verify_,tee_sample_,poa_verify_e2e_50,merkle_proof_,crc32_,sha256_,audit_append_,geo_check_alibi_,follower_catchup_

# Builds every example and runs each one no other target runs
# (crash_recovery runs under `chaos`, failover under `failover`), so an
# example that panics or errors at run time fails the build.
RUN_EXAMPLES = airport_scenario delivery_fleet dishonest_operator overflight_3d \
	privacy_preserving_audit quickstart residential_scenario route_planning

examples:
	$(CARGO) build --release --offline --examples
	@for e in $(RUN_EXAMPLES); do \
		echo "== example $$e"; \
		$(CARGO) run --release --offline --example $$e || exit 1; \
	done

experiments:
	$(CARGO) run -p alidrone-sim --release --offline --bin exp_all

# Experiment regression gate: exp_all's stdout (every figure and table
# it prints) must match crates/sim/golden/exp_all.stdout line for line.
# exp_all execs its sibling binaries, so all sim bins are built first.
# Dropped before the diff: the two exp_table2 lines that report this
# machine's own signing speed. Regenerate the golden the same way after
# an intended change to an experiment's output.
experiments-check:
	$(CARGO) build -p alidrone-sim --release --offline --bins
	@mkdir -p target
	$(CARGO) run -p alidrone-sim --release --offline --bin exp_all > target/exp_all.stdout
	grep -v -e '^local calibration:' -e '^on this machine ' target/exp_all.stdout \
		| diff -u crates/sim/golden/exp_all.stdout -
