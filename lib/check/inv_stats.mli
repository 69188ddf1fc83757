(** Per-invariant evaluation accounting, shared by the exhaustive explorer
    and the random walker.

    The checkers spend most of their time inside invariant predicates, so
    this is the telemetry that attributes checker cost: how many times each
    invariant was evaluated, how long it took cumulatively, and which one
    produced the first violation.  The [plain] variant is the checkers'
    original fast path (first failing invariant, no bookkeeping) and is
    selected whenever the reporter is disabled, so observability costs
    nothing when off. *)

type 'sys t = {
  check : 'sys -> string option;
      (** name of the first failing invariant, in catalogue order *)
  counts : unit -> (string * int * float) array;
      (** per invariant, in catalogue order: (name, evaluations,
          cumulative seconds) so far.  Empty for [plain], which keeps no
          books. *)
}

val make : obs:Obs.Reporter.t -> (string * ('sys -> bool)) list -> 'sys t
(** Instrumented when [obs] is enabled, [plain] otherwise. *)

val plain : (string * ('sys -> bool)) list -> 'sys t
(** The zero-bookkeeping fast path: [check] is a bare first-failure
    scan, [counts] is empty. *)

val instrumented : (string * ('sys -> bool)) list -> 'sys t
(** The accounting variant: per-invariant eval counts and cumulative
    timings, at the cost of two clock reads per evaluation. *)

val report : Obs.Reporter.t -> first_violation:string option -> 'sys t list -> unit
(** Emit one [invariant] record per invariant, its counts summed over
    the given accountants (one per worker domain, all over the same
    catalogue).  Nothing when they are all [plain]. *)

val totals : 'sys t list -> int * float
(** Total (evaluations, cumulative seconds) across all invariants and
    accountants — the invariant-eval share of the checkers' [profile]
    record.  [(0, 0.)] for [plain]. *)
