#!/usr/bin/env bash
# The structural gates: the checks of .github/workflows/ci.yml that only
# read the tree (grep, wc, awk, ls, git grep), one function per CI step,
# each under the comment that says why. Run from the repository root:
#
#   scripts/gates.sh                 # every gate
#   scripts/gates.sh one_judged_driver e15_carries_its_four_verdicts_all_yes
#
# A gate stops at its first failing check, and prints its name and that
# check's line. The script exits 1 if any gate failed, once every named
# gate has run. tests/gates.rs runs every gate in `cargo test`.
set -u

# Twice a decomposition of the client's state machine grew back over
# the PRs that followed it. Site knowledge lives in planner.rs, and
# there is one inquiry phase. A read takes its freshness from its
# own round, and a fetch has one leg out at a time: no inquiry
# leaders and followers, no hedges. Spans and decisions go to the
# node's one recorder: no state machine holds a span handle or
# tests a tracing switch. The client's own-site copies are
# local.rs's, which reads the cache-tier switch once; servers push
# nothing at attached caches. The decision log and the commit tails
# are commit.rs's, which reads their two options once, and a
# reconfiguration's plan is reconfig.rs's. The pipeline window's
# backlog waits in window.rs, outside the table of launched ops. A
# read asks its own zero-vote copy once: that copy's inquiry is its
# content read. One place builds a `ReadReq`, `content_read`: a
# fetch leg's, or one to a guessed copy the inquiry skips. A phase
# cancels its own timers, so a timer token carries no phase sequence.
client_rs_stays_decomposed() {
  first_test="$(grep -n -m1 '^#\[cfg(test)\]' crates/core/src/client.rs | cut -d: -f1)"
  test "$first_test" -le 2392
  test "$(head -n "$first_test" crates/core/src/client.rs | grep -c 'Msg::ReadReq {')" -eq 1
  test -z "$(grep -nE 'queue: VecDeque|fn launch_queued|lost to a crash while queued' crates/core/src/client.rs)"
  test -z "$(grep -n 'self.options.weak_rep' crates/core/src/client.rs)"
  test -z "$(grep -n 'TOKEN_SEQ_MASK' crates/core/src/client.rs)"
  test -z "$(grep -nE 'CommitTail\b|log_commit_decision|enter_reconfig_prepare|self\.decisions|self\.unretired|self\.tails|options\.commit_resend_limit|options\.push_weak_on_write' crates/core/src/client.rs)"
  test -z "$(grep -rnE 'gossip_fill|refresh_clients|set_cache_refresh_targets|cache_pushes' crates/)"
  test -z "$(grep -rn 'WriteInquire' crates/)"
  test -z "$(grep -rnE 'inquiry_leaders|Piggyback|TimerKind::Hedge|hedge_delay|piggybacked_inquiries|hedges_fired' crates/)"
  test -z "$(grep -rnE 'struct OpTrace|fn op_spans|fn enable_audit|tracer: Option<|audit: Option<' crates/)"
}

# The representative keeps its protocol; anti-entropy repair and its
# quarantine are repair.rs's, and the responses waiting for a durable
# sync are sync.rs's. A crash takes a site's timers with it, so no
# server timer needs an epoch to tell a stale firing from a live one.
server_rs_stays_decomposed() {
  test "$(grep -n -m1 '^#\[cfg(test)\]' crates/core/src/server.rs | cut -d: -f1)" -le 1350
  test -z "$(grep -nE 'quarantine_pending|repair_cursor|sync_queue|sync_active|enum Deferred' crates/core/src/server.rs)"
  test -z "$(grep -rnE 'repair_epoch|sync_epoch' crates/)"
}

# A version inquiry is one hash lookup in the container, a
# coordinator tallies an attempt's participants in a vec kept in
# site order, and a commit lock's line is a vec kept in token order:
# no ordered tree on the per-message path. Where order shows, the
# container sorts as it builds the output.
no_ordered_tree_on_the_per_message_path() {
  test -z "$(grep -nE '(committed|live): BTreeMap' crates/storage/src/container.rs)"
  test -z "$(grep -nE '(yes|in_line): BTreeMap|acked: BTreeSet|unretired: BTreeSet' crates/core/src/client.rs crates/core/src/commit.rs)"
  test -z "$(grep -n 'line: BTreeSet' crates/txn/src/lock.rs)"
}

# An operation allocates only what it keeps: a ranking under
# suspicion reuses its demoted order, the coordinator's site lists
# and the inquiry's answers live in place, a prepare's writes, a
# vote's staged versions and a decision's versions are one shared
# slice each, and the lock table and the container reuse their
# emptied lists. A payload vector with no spare capacity becomes
# `Bytes` without a copy, and a site's timers are one vec-backed
# `TimerQueue` in both transports. `test -z` fails the step on any
# line (a `! grep` before the last line would not, under `bash -e`).
the_per_message_path_allocates_only_what_it_keeps() {
  test -z "$(grep -nE 'let set: Vec<SiteId> = self\.inquiry_set|let mut reordered: Vec<SiteId>' crates/core/src/planner.rs)"
  test -z "$(grep -nE '(writes: Vec<PrepareWrite>|staged: Vec<\(ObjectId, Version\)>|versions: Vec<\(ObjectId, Version\)>),' crates/core/src/msg.rs crates/core/src/server.rs crates/core/src/commit.rs)"
  test -z "$(grep -nE 'versions: self\.versions\.clone\(\)|let mut record = Vec::with_capacity|participants: Vec<SiteId>' crates/core/src/commit.rs crates/core/src/client.rs)"
  test -z "$(grep -nE 'p\.staged\.clone\(\)|held_reads: IdHashMap|fn hosted\(&self\) -> Vec' crates/core/src/server.rs)"
  test -z "$(grep -nE 'answers: Vec::with_capacity|unprobed: Vec<Vec<SiteId>>|batches: Vec<\(SiteId, Vec<PrepareWrite>\)>' crates/core/src/client.rs)"
  test -z "$(grep -nE 'SiteMap<V>\(Vec<' crates/core/src/site_map.rs)"
  test -z "$(grep -n 'or_default().push(object)' crates/txn/src/lock.rs)"
  test -z "$(grep -n 'self.live.insert(tx, TxState::new())' crates/storage/src/container.rs)"
  test -z "$(grep -n 'Inner::Shared(Arc::from(v))' vendor/bytes/src/lib.rs)"
  test -z "$(grep -n 'VecDeque' crates/net/src/sim_net.rs crates/net/src/runner.rs)"
}

# No thread but the node runners carries a message: a sender pushes
# into the receiver's deadline heap, and a runner makes one blocking
# wait, until its next timer, its heap's top or a wake. Its timers
# are the simulator's `TimerQueue`, not ordered maps. The two files
# stay within their non-test line budget.
real_threads_without_a_router_or_a_poll() {
  test -z "$(grep -nE 'router_loop|Cmd::Route|wv-net-router|BTreeMap' crates/net/src/thread_net.rs crates/net/src/runner.rs)"
  test "$(( $(grep -n -m1 '^#\[cfg(test)\]' crates/net/src/thread_net.rs | cut -d: -f1) + $(grep -n -m1 '^#\[cfg(test)\]' crates/net/src/runner.rs | cut -d: -f1) - 2 ))" -le 445
}

# There is one way to build a cluster, on either clock: the
# harness's builder puts it on the simulator (`build`) or on real
# threads (`build_on_threads`, crates/core/src/thread_harness.rs). No
# test builds a node, a network or a runner by hand, and the thread
# side keeps only the verbs a real clock gives meaning to: an `Op`
# starts through the one `enqueue` there too.
one_builder_two_clocks() {
  test -z "$(grep -rnE 'NodeRunner::spawn|ThreadNet::start|ClientNode::new|SuiteServer::new' tests/)"
  test -z "$(awk '/pub fn/ { n++ } END { if (n > 6) print FILENAME ": " n " pub fn" }' crates/core/src/thread_harness.rs 2>&1)"
  test -z "$(awk '/^#\[cfg\(test\)\]/ { exit } { n++ } END { if (n > 128) print FILENAME ": " n " lines before its tests" }' crates/core/src/thread_harness.rs 2>&1)"
}

# A counter is declared once, in the node that counts it: the chaos
# tally and the experiments sum the nodes' own stats structs instead
# of copying their fields, and nothing counts an outcome no
# operation ends in. The campaign and its report stay within budget.
chaos_tallies_read_the_nodes_own_counters() {
  test "$(cat crates/chaos/src/campaign.rs crates/chaos/src/report.rs | wc -l)" -le 851
  test -z "$(grep -rnE 'struct (TrialCoverage|CellSummary|TrialOut)\b|indeterminate' crates/chaos/src crates/bench/src/e10.rs)"
}

# A chaos schedule's faults are the harness's own `wv_core::Fault`
# values, injected as they stand: no event kind per fault and no
# list of disk-fault names comes back beside them.
one_fault_vocabulary_from_the_schedule_to_the_harness() {
  test -z "$(grep -rnE 'EventKind::(Crash|Recover|Partition|Heal|LossBurst|DelaySpike|Duplication|TornWrite|BitFlip|IoError|DiskStall)|DISK_FAULTS' crates/)"
}

# A run is a `Plan` of `Op`s and `Fault`s, played by the one driver,
# crates/bench/src/drive.rs: no experiment and not the chaos executor
# drains a completion log, steps a cluster one event at a time, makes a
# blocking call (`run`, `read`, `write`) of its own, or ends a run by a
# rule of its own. A blocking call is a plan's sequential entry, so no
# history is built by hand beside a loop (`Driven::carry`, `finish`),
# and the threads test plays the one plan on both clocks instead of
# writing its workload as `Step`s. The op-log oracle sits in wv-bench,
# below the driver; wv-chaos re-exports it and keeps only the
# trial-level checks. The oracle numbers versions per suite itself, so
# the chaos trial splits no log by suite, and a plan records the
# payloads it sends, so the executor inserts none. A report judges its
# histories in one place, the `Verdict` its registry row hands it: no
# E-table calls the oracle itself or picks a strictness, no test
# re-judges a table, `check_trial` takes the trial alone, and only E6
# and E13 hold a history to a lease.
one_judged_driver() {
  test "$(grep -rln drain_completed crates/bench/src crates/chaos/src)" = "crates/bench/src/drive.rs"
  test -z "$(grep -rnE 'fn (check_log|check_progress|check_convergence|check_staleness_bound|ran_quiet)\b' crates/chaos/src)"
  test -z "$(grep -rnE 'fn every_.*passes_the_oracle' crates/)"
  test -z "$(grep -nE 'check_log\(|\.judge\((true|false)' crates/bench/src/e*.rs crates/chaos/src/e14.rs)"
  test -z "$(grep -rnE 'check_trial\(.*, *(true|false|strict)\)|fn check_trial\([^)]*,' crates/ tests/)"
  test "$(grep -rl 'judge_leased(' crates/bench/src/e*.rs crates/chaos/src | sort | xargs)" = "crates/bench/src/e13.rs crates/bench/src/e6.rs"
  test -z "$(grep -rn 'fn collect_ops' crates/)"
  test -z "$(grep -rn 'fn suite_log' crates/chaos/src)"
  test -z "$(grep -rn 'sent_payloads.insert' crates/chaos/src)"
  test -z "$(grep -rn 'run_until_quiet(1)' crates/bench/src crates/chaos/src)"
  test -z "$(grep -nE 'fn (carry|finish)\b' crates/bench/src/drive.rs)"
  test -z "$(awk '/^#\[cfg\(test\)\]/ { nextfile } /\.(read|write|run)\(/ { print FILENAME ":" FNR ": " $0 }' crates/bench/src/e*.rs crates/bench/src/inspect.rs crates/chaos/src/exec.rs)"
  test -z "$(grep -n 'enum Step' tests/paper_examples_on_threads.rs)"
}

# Nothing is configurable that nobody configures: the schedule
# generator's inputs are the cluster spec and the seed, the
# shrinker's budget is a constant, diagnostics are plain eprintln!
# lines, and the harness's surface does not grow back: every fault,
# a crash too, goes through `inject`, node state through `client_at`
# / `server_at`, and a node records through its one `Recorder`. The
# simulated network applies a fault through one `Cluster::apply_at`.
# Every operation is an `Op`, started by `enqueue` or `run` and
# mapped to the client's `start_*` in one place, `Op::start`; the
# per-kind `enqueue_*` are forwards kept for the frozen benchmark.
no_knob_with_one_value_in_use() {
  test -z "$(grep -rnE 'ScheduleParams|WV_VERBOSE|vlog::|NormalClipped|Bimodal|bernoulli_snapshot|take_trace_jsonl' crates/ src/ tests/ examples/ README.md)"
  test "$(grep -c 'pub fn' crates/core/src/harness.rs)" -le 42
  test -z "$(grep -rnE 'pub fn (read_from|write_from|transaction|reconfigure_from|enqueue_reconfigure)\(|struct (ReadResult|WriteResult|TransactionResult)\b' crates/ src/ tests/ examples/)"
  test -z "$(grep -rnE 'enqueue_(read|write|transaction)\(' crates/ src/ tests/ examples/ | grep -vE '^crates/core/src/harness\.rs:[0-9]+:    pub fn enqueue_(read|write|transaction)\(')"
  test "$(grep -rnE '\.start_(read|write|transaction|reconfigure)\(' crates/ src/ tests/ examples/ | grep -v '^crates/core/src/client\.rs:' | cut -d: -f1 | uniq -c | tr -s ' ')" = " 4 crates/core/src/harness.rs"
  test -z "$(grep -nE 'pub fn (builder|suite|take_trace|is_down|crash|recover|partition|heal|set_drop_all|set_extra_delay|set_duplicate_prob|arm_torn_write|arm_bit_flip|inject_io_errors|disk_stall|client_stats|server_stats|client_site_load|generation_at|is_quarantined)\(' crates/core/src/harness.rs)"
  test -z "$(grep -n 'pub struct Tracer' crates/sim/src/trace.rs)"
  test -z "$(grep -nE 'pub fn (crash_at|recover_at|set_partition_at|set_drop_all_at|set_extra_delay_at|set_duplicate_at)\(' crates/net/src/sim_net.rs)"
  test "$(grep -c 'pub fn' crates/net/src/sim_net.rs)" -le 5
}

# E6 runs read-one/write-all and primary copy as vote assignments on
# wv-core. wv-baselines, once their second protocol stack, is an
# empty shell kept only so benchmark/Cargo.lock stays as it is
# (ROADMAP item 4 deletes it): one file that declares nothing, and
# no code names it.
wv_baselines_stays_an_empty_shell() {
  test "$(ls crates/baselines/src)" = "lib.rs"
  test -z "$(grep -vE '^[[:space:]]*(//|#!\[|$)' crates/baselines/src/lib.rs)"
  test -z "$(grep -rn 'wv_baselines' crates/ src/ tests/ examples/)"
}

# DESIGN.md describes the system as it is; it may shrink, not grow.
design_md_stays_within_its_line_budget() {
  test "$(wc -l < DESIGN.md)" -le 1454
}

# A blocking probability is exact: the protocol runs once on every
# crash set and each outcome is weighted by its probability, beside
# the closed form. Nothing samples either of them.
blocking_numbers_are_exact() {
  test ! -e crates/bench/src/mc.rs
  test -z "$(git grep -nE 'simulate_quorum_availability|mc::(blocking|availability)' crates src tests)"
  test -z "$(grep 'MC P(' results/e5.md)"
}

# The one `unsafe impl` is the counting allocator of
# tests/ledger/mod.rs; every crate root forbids unsafe code, wv-sim's
# and wv-net's slabs and wv-storage's CRC included, and no code picks
# a path by the CPU it runs on.
unsafe_stays_in_one_place() {
  test "$(grep -rlE --include='*.rs' 'unsafe (\{|impl|fn)' crates/ src/ vendor/ tests/ | sort)" = "tests/ledger/mod.rs"
  test -z "$(grep -L '#!\[forbid(unsafe_code)\]' crates/*/src/lib.rs src/lib.rs)"
  test -z "$(grep -rnE 'std::arch|target_feature|is_x86_feature_detected' crates/ src/)"
}

# What an operation costs is one work ledger, tests/ledger/mod.rs:
# one cluster builder and one measurement of messages, timers,
# allocations and framed bytes, so a new shape is a row, a new
# counter a column and a re-pin one cell. The tests that list its
# rows (tests/*_costs.rs) and compare its columns
# (tests/work_ledger.rs) build no cluster and count nothing of their
# own.
one_work_ledger() {
  test "$(wc -l < tests/ledger/mod.rs)" -le 450
  test "$(cat tests/ledger/mod.rs tests/*_costs.rs tests/work_ledger.rs | wc -l)" -le 600
  test -z "$(grep -lE 'HarnessBuilder|GlobalAlloc|fn (cluster|measure|counters)\b' tests/*_costs.rs tests/work_ledger.rs)"
}

# Every report that runs the protocol closes with the oracle's
# verdict on its histories (E4 is analytic, E9 judges each trial in
# its own lines), and the verdict is clean.
every_e_tables_histories_are_judged_clean() {
  for f in results/e*.md; do
    case "$f" in results/e4.md|results/e9.md) continue ;; esac
    grep -qE '^Histories judged: [0-9]+ \([0-9]+ operations\); violations: 0\.$' "$f" || { echo "$f: no clean verdict line"; exit 1; }
  done
}

# The paper's table charges a write one quorum access, and E1's
# measured write is that access itself: its rows carry the paper's
# 75 / 100 / 750 ms in all three columns, with no divisor anywhere.
e1_measures_the_papers_write_entries_undivided() {
  grep -q '^| write latency, one quorum access (ms) | 75.0 | 75.0 | 75.0 |$' results/e1.md
  grep -q '^| write latency, one quorum access (ms) | 100 | 100 | 100 |$' results/e1.md
  grep -q '^| write latency, one quorum access (ms) | 750 | 750 | 750 |$' results/e1.md
  test -z "$(grep -n 'write/2' results/e1.md)"
  # ...and a read is one round too: the miss's contents come with
  # the version answer that reveals it, not in a fetch round after.
  grep -q '^| read latency, cache miss (ms) | — | — | 75.0 |$' results/e1.md
}

# E15 judges what sharding buys at window depth 1, where the only
# line is the one between clients, and what a client's own window
# costs at depth 32, where it leaves as trains: four verdicts.
e15_carries_its_four_verdicts_all_yes() {
  test "$(grep -c ': \*\*yes\*\*' results/e15.md)" = "4"
  ! grep -q 'NO\*\*' results/e15.md
}

# Every gate, in file order, when none is named.
[ "$#" -gt 0 ] || set -- $(sed -n 's/^\([a-z0-9_]*\)() {$/\1/p' "$0")
failed=0
for gate in "$@"; do
  (
    set -e
    trap 'status=$?; [ "$status" -eq 0 ] || echo "gate $gate failed: $BASH_COMMAND" >&2' EXIT
    "$gate"
  )
  [ "$?" -eq 0 ] || failed=1
done
exit "$failed"
