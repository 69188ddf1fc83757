(** Exhaustive explicit-state exploration: breadth-first search over a CIMP
    system's reachable states, evaluating invariants at every state.

    On a bounded instance this is the executable substitute for the paper's
    induction over the reachable-state set (Section 3.2), and it produces a
    shortest counterexample schedule when an invariant fails.

    One engine serves every [jobs]: an asynchronous work-stealing BFS
    across OCaml 5 domains.  A persistent pool of [jobs] worker domains
    is spawned once per run (not per BFS level).  Each worker expands
    states from its own deque, pushes fresh successors locally, and
    steals half of a victim's deque when it runs dry; termination is
    detected by an atomic active-task counter whose quiescence (zero
    published-but-unfinished tasks) no worker can observe spuriously.
    With one worker the pool is a single FIFO deque, so [jobs = 1] is a
    plain deterministic BFS.

    The shortest-counterexample guarantee survives without level
    synchronization because seen-set entries are depth-stamped: a
    shorter path to a known state atomically improves the entry's
    (depth, parent, event) triple and re-enqueues it, so stamps relax to
    true BFS distances by quiescence, and violations race through an
    atomic best-(depth, fingerprint) cell with min-tie-break.  The
    minimal trace is then recovered by bounded parent-chain replay, the
    same step-by-step replay that rebuilds frontier states at resume.  DESIGN.md §11 gives the minimality argument.

    The seen-set is the tiered store of {!Store.Tiered}: 64
    independently-locked RAM shards of 32 bytes per state that, under a
    memory budget, freeze into Bloom-fronted sorted on-disk segments
    (DESIGN.md §12), so state spaces larger than RAM stay exactly
    deduplicated.  The same segment format powers checkpoint/resume
    ({!Store.Checkpoint}). *)

type ('a, 'v, 's) outcome = {
  states : int;  (** distinct states visited *)
  transitions : int;  (** transitions traversed *)
  depth : int;  (** BFS depth reached *)
  deadlocks : int;  (** states with no successors *)
  truncated : bool;  (** hit [max_states] before closing the state space *)
  violation : ('a, 'v, 's) Trace.t option;  (** first (shortest) violation *)
  elapsed : float;  (** wall-clock seconds *)
  covered : (int * Cimp.Label.t) list;
      (** (pid, label) pairs that fired (empty unless [track_coverage]),
          sorted by pid then label so coverage diffs are stable across
          runs; program locations never exercised indicate dead model
          code *)
}

val pp_outcome : ('a, 'v, 's) outcome Fmt.t
(** One-line human rendering of an outcome (counts, depth, wall time,
    verdict) — the checker CLIs' summary line. *)

(** Sort (pid, label) coverage pairs deterministically (by pid, then
    label), as the [covered] field is. *)
val sort_coverage : (int * Cimp.Label.t) list -> (int * Cimp.Label.t) list

(** [coverage_gaps sys ~covered] lists the (pid, label) pairs of [sys]'s
    programs that never fired, sorted by pid then label.  Pass the
    checker's {e initial} system (its stacks still hold the full
    programs) and an outcome's [covered] list. *)
val coverage_gaps :
  ('a, 'v, 's) Cimp.System.t -> covered:(int * Cimp.Label.t) list -> (int * Cimp.Label.t) list

(** Scheduler observation hooks, injectable from tests to make
    termination-detection interleavings deterministic (e.g. hold a worker
    in its quiescence probe until another worker has published work, then
    assert the probe did not terminate the run early).  [on_expand] fires
    before each state expansion; [on_idle] when a worker's own deque runs
    dry; [on_steal] after a successful steal; [on_probe] on every
    quiescence check, with the pending-task count the worker observed.
    The default {!no_hooks} do nothing. *)
type hooks = {
  on_expand : worker:int -> depth:int -> unit;
  on_idle : worker:int -> unit;
  on_steal : worker:int -> victim:int -> stolen:int -> unit;
  on_probe : worker:int -> pending:int -> unit;
}

val no_hooks : hooks
(** Hooks that do nothing (the default). *)

val max_jobs : int
(** Cap on [jobs] (64): deques, lanes and per-worker counters are
    fixed-size arrays of this length. *)

(** [run ~invariants initial] explores from [initial] across [jobs]
    worker domains (default 1, capped at {!max_jobs}).  Invariants are
    (name, predicate) pairs checked at every state, including the
    initial one; a violation prunes every expansion at or beyond its
    depth, which makes the reported one a shortest one.

    Determinism contract across [jobs]:
    - a non-truncated run with no violation reports the same counts
      ([states], [transitions], [depth], [deadlocks]) and [covered] list
      at every [jobs]: every reachable state is inserted exactly once,
      and transitions/deadlocks are counted only on a state's first
      expansion (depth-improvement re-expansions recount nothing).  One
      caveat under [mem_budget]: [depth] may overstate when a spilled
      entry is later depth-improved (the stale deeper copy persists on
      disk until a merge rewrites it);
    - a violating run reports a violation of minimal depth; among
      equal-depth violations the smallest fingerprint wins, so the
      verdict, the violated invariant and the counterexample length are
      deterministic.  At [jobs = 1] a violating run counts exactly the
      states at depth up to and including the violation's; at
      [jobs > 1] its state counts depend on the schedule, because
      pruning races with discovery;
    - [max_states] may overshoot by the successors in flight (at most one
      expansion batch per worker) before every worker observes the cap.

    @param max_states cap on distinct states (default 1,000,000); hitting
           it sets [truncated] and stops the exploration (no further
           successors are scanned or enqueued).
    @param normal_form explore {!Cimp.System.normalize} normal forms
           (default [true]): runs of deterministic local steps execute
           eagerly, so invariants are evaluated at atomic-action
           boundaries only.
    @param track_coverage record which (pid, label) pairs fire.
    @param obs observability reporter (default {!Obs.Reporter.null}).
           When enabled, each worker emits its own [heartbeat] records
           every [heartbeat_every] expansions, tagged with a [domain]
           index (the [frontier] field reports the pending-task count)
           and carrying store occupancy ([bytes_resident], [mem_budget],
           [segments], [spilled_states], and the per-shard
           [bytes_resident_per_shard] list); each worker
           reports its own per-[invariant] records (eval count,
           cumulative seconds, first-violation attribution; aggregate
           across domains for totals).  The run ends with one [profile]
           record (wall time split into successor generation,
           normalization, fingerprinting, invariant evaluation and the
           rest, summed over workers, plus GC counters), an [outcome]
           record (among its fields [jobs], [states], [elapsed_s] and
           [states_per_sec]) and a [scaling-detail] record: per-domain
           busy and idle seconds, steal / failed-steal / stolen-task /
           termination-probe counters, seen-set shard lock contention
           (acquires, contended acquires, per-shard wait), deque lock
           wait, the Amdahl serial-fraction estimate
           ({!Obs.Contention.estimate}), and the tiered-store counters
           (resident/peak/disk bytes, spills, merges, segments, spilled
           entries, disk probe and Bloom statistics).  Each checkpoint
           also emits a [checkpoint] record ([seq], [states],
           [frontier], [dir]).  Every record says [checker = "explore"].
    @param tracer span tracer (default {!Obs.Tracing.null}).  When live
           with at least [jobs] lanes, each worker's own lane
           (single-writer discipline, no coordinator involvement)
           carries [expand] spans per heartbeat interval with
           [successor-gen] / [normalize+fingerprint] / [seen-insert] /
           [invariants] / [deque-push] phase sub-spans, a [steal] span
           per successful steal, a [steal-fail] span per empty-handed
           victim sweep episode, a [termination-probe] span at the
           quiescence check that ends the worker's run, and
           [store-spill] / [store-merge] / [store-disk-probe] spans on
           the worker whose insert triggered the store event.  Phases
           are clocked only when [obs] is enabled or the tracer is live.
    @param heartbeat_every expansions per worker between heartbeats
           (default 20,000).
    @param hooks scheduler observation hooks for tests
           (default {!no_hooks}).
    @param reducer optional state-space reduction hook ({!Reducer.t}):
           its fingerprint replaces {!Fingerprint.of_system} for seen-set
           dedup and counterexample replay matching, its successor
           function replaces {!Cimp.System.steps} for expansion, and its
           canonical representative is what gets expanded.  When present
           and [obs] is enabled, a [reduction] record is emitted next to
           the [outcome] record.  Note reduction may lengthen the
           "shortest" counterexample (partial-order reduction removes
           interleavings, symmetry merges orbits).
    @param mem_budget resident-byte budget for the seen-set
           ({!Store.Tiered.create}); shards crossing their slice of it
           freeze into on-disk segments.  Absent, everything stays in
           RAM.
    @param spill_dir directory for segment files (default: a fresh
           temporary directory).
    @param checkpoint [(dir, every)]: snapshot the full exploration state
           into [dir] (atomically, {!Store.Checkpoint.write}) every
           [every] newly inserted states, and once more after the run
           completes.  Worker 0 coordinates a stop-the-world rendezvous:
           the pool parks at batch boundaries, where deques + counters
           are the entire frontier.
    @param resume a snapshot loaded by {!Store.Checkpoint.load}; the run
           continues from it (frontier states are rebuilt by memoized
           parent-chain replay, since CIMP systems embed closures and
           cannot be marshalled) and on an interrupted-then-resumed run
           reaches the same verdict, violated invariant and
           counterexample length as an uninterrupted one.  Raises
           [Invalid_argument] if the snapshot does not match the model.
    @param on_store called with the seen-set ({!Store.Tiered.t}) once
           the run has settled; certificate writers dump it.
    @param run_config opaque JSON echoed into each snapshot's manifest,
           so [gcmodel resume] can rebuild the model and flags. *)
val run :
  ?jobs:int ->
  ?max_states:int ->
  ?normal_form:bool ->
  ?track_coverage:bool ->
  ?obs:Obs.Reporter.t ->
  ?tracer:Obs.Tracing.t ->
  ?heartbeat_every:int ->
  ?hooks:hooks ->
  ?reducer:('a, 'v, 's) Reducer.t ->
  ?mem_budget:int ->
  ?spill_dir:string ->
  ?checkpoint:string * int ->
  ?resume:Store.Checkpoint.snapshot ->
  ?on_store:(Store.Tiered.t -> unit) ->
  ?run_config:Obs.Json.t ->
  invariants:(string * (('a, 'v, 's) Cimp.System.t -> bool)) list ->
  ('a, 'v, 's) Cimp.System.t ->
  ('a, 'v, 's) outcome
