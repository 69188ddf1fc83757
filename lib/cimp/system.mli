(** The CIMP system semantics of the paper's Fig. 8: flat parallel
    composition with top-level interleaving and rendezvous.

    A global state maps process names to their local configurations; all
    processes share one data-state type, as in the Isabelle development. *)

type ('a, 'v, 's) t

type pid = int

(** What a global step did, for trace reconstruction. *)
type event =
  | Tau of pid * Label.t
  | Rendezvous of { requester : pid; req_label : Label.t; responder : pid; resp_label : Label.t }

val pp_event : string array -> event Fmt.t

(** The process that initiated the event: the stepping process of a tau,
    the requester of a rendezvous. *)
val event_owner : event -> pid

(** Every process whose configuration the event may have changed: [[p]]
    for a tau of [p], [[requester; responder]] for a rendezvous.  The
    write footprint at configuration granularity, used by partial-order
    reduction's independence relation. *)
val event_pids : event -> pid list

(** [make names procs] composes the processes.
    @raise Invalid_argument if the arrays' lengths differ.
    @raise Label.Hash_collision if two distinct labels of the processes'
    programs share a {!Label.hash} (control fingerprints could not tell
    them apart). *)
val make : string array -> ('a, 'v, 's) Com.config array -> ('a, 'v, 's) t

val n_procs : ('a, 'v, 's) t -> int
val proc : ('a, 'v, 's) t -> pid -> ('a, 'v, 's) Com.config
val name : ('a, 'v, 's) t -> pid -> string

(** All successors: every process's tau steps (first rule of Fig. 8) and
    every requester/responder pairing (second rule). *)
val steps : ('a, 'v, 's) t -> (event * ('a, 'v, 's) t) list

(** Successors when only process [p] is scheduled (its taus and the
    rendezvous it initiates); used by randomized schedulers. *)
val steps_of : ('a, 'v, 's) t -> pid -> (event * ('a, 'v, 's) t) list

val deadlocked : ('a, 'v, 's) t -> bool

(** The paper's [at p l]: does control of process [p] reside at label [l]? *)
val at : ('a, 'v, 's) t -> pid -> Label.t -> bool

(** Surgical replacement of one process's data state (for tests and
    experiment drivers). *)
val map_data : ('a, 'v, 's) t -> pid -> ('s -> 's) -> ('a, 'v, 's) t

(** Normal form under definite local steps: run every process's
    {!Com.definite_tau} steps to quiescence.  Sound for invariants that
    only observe states at atomic-action boundaries — the evaluation-context
    coarsening of the paper's Section 3. *)
val normalize : ('a, 'v, 's) t -> ('a, 'v, 's) t
