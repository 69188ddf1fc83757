(** Randomized deep runs: schedule transitions uniformly at random,
    checking invariants at every state.  Probabilistic where exhaustive
    exploration is infeasible (larger heaps, more mutators, unbounded
    cycles); drives the model through thousands of collection cycles. *)

type ('a, 'v, 's) outcome = {
  steps_taken : int;
  runs : int;  (** walks performed (includes every restart) *)
  restarts : int;  (** restarts forced by dead ends, specifically *)
  violation : ('a, 'v, 's) Trace.t option;
  elapsed : float;
}

val pp_outcome : ('a, 'v, 's) outcome Fmt.t
(** One-line human rendering of a walk outcome (steps, runs, restarts,
    wall time, verdict). *)

(** [run ~invariants initial] walks until [steps] scheduled steps have been
    taken or an invariant fails.  Deterministic in [seed].

    @param max_run_length restart after this many steps in one walk
    @param normal_form as in {!Explore.run}
    @param trace_tail retain at most this many trailing steps of the
           current walk for the counterexample (default 1000; memory for
           deep walks is bounded by it).  A violation deeper than
           [trace_tail] yields a trace holding only the final
           [trace_tail] steps — its [steps] then do not replay from
           [initial].
    @param obs as in {!Explore.run}: [heartbeat] records every
           [heartbeat_every] steps (steps/sec, runs, dead-end restarts,
           GC words), per-[invariant] records, and a final [outcome]
           record.
    @param tracer span tracer (default {!Obs.Tracing.null}).  When live,
           the walk's lane (index [domain], or 0) carries one [walk-steps]
           span per heartbeat interval and a [walk] span over the whole
           call — per-domain timeline lanes under {!swarm}.
    @param should_stop polled every step; the walk returns early when it
           turns true (cooperative cancellation for {!swarm}).
    @param domain tag emitted as a [domain] field on this walk's
           heartbeat/outcome records (set by {!swarm}).
    @param reducer optional {!Reducer.t}: its successor function replaces
           {!Cimp.System.steps} (the walk has no seen-set, so the
           reducer's fingerprint is unused).  Note a partial-order-reduced
           walk samples schedules from the reduced transition system, so
           per-seed step sequences differ from unreduced runs. *)
val run :
  ?seed:int ->
  ?steps:int ->
  ?max_run_length:int ->
  ?normal_form:bool ->
  ?trace_tail:int ->
  ?obs:Obs.Reporter.t ->
  ?tracer:Obs.Tracing.t ->
  ?heartbeat_every:int ->
  ?should_stop:(unit -> bool) ->
  ?domain:int ->
  ?reducer:('a, 'v, 's) Reducer.t ->
  invariants:(string * (('a, 'v, 's) Cimp.System.t -> bool)) list ->
  ('a, 'v, 's) Cimp.System.t ->
  ('a, 'v, 's) outcome

(** [swarm ~jobs ~invariants initial] runs [jobs] concurrent walks of the
    same root on separate domains, each seeded from [seed] and its domain
    index, splitting the [steps] budget across domains (the total is
    exactly [steps] when no violation occurs, so aggregate counters are
    deterministic in [seed]).  The first violation found raises a stop
    flag the other domains poll every step; the lowest-indexed finder's
    trace is returned.  Run/step/restart counters are summed over the
    domains into the swarm's [outcome] record, which carries the single
    walker's [steps], [runs] and [dead_end_restarts] fields plus [jobs].
    [jobs <= 1] delegates to {!run}; [jobs] is capped at 64. *)
val swarm :
  ?jobs:int ->
  ?seed:int ->
  ?steps:int ->
  ?max_run_length:int ->
  ?normal_form:bool ->
  ?trace_tail:int ->
  ?obs:Obs.Reporter.t ->
  ?tracer:Obs.Tracing.t ->
  ?heartbeat_every:int ->
  ?reducer:('a, 'v, 's) Reducer.t ->
  invariants:(string * (('a, 'v, 's) Cimp.System.t -> bool)) list ->
  ('a, 'v, 's) Cimp.System.t ->
  ('a, 'v, 's) outcome
