(** The GC model's instantiation of [lib/reduce]: mutator symmetry,
    register liveness, and the mfence-deferral POR policy.

    Sound only under normal-form exploration (the checkers' default):
    the liveness rules null registers whose remaining readers are
    definite-tau steps, which never rest in normal form.  See DESIGN.md
    "State-space reduction" for the full argument. *)

(** The symmetry spec: mutator pids are interchangeable.  A mutator's
    component hashes its control spine, canonicalized local data and its
    Sys slices (store buffer, work-list, ghg, handshake pending/done/type
    entries, and whether it holds the lock); the Sys hash leaves out
    exactly those slices (the lock reduced to none, collector, or some
    mutator).  Permutation is skipped inside the handshake signal loop,
    the one window where the collector addresses mutators by index. *)
val spec : Config.t -> (Types.msg, Types.value, State.t) Reduce.Symmetry.spec

(** Deferrable transitions are exactly the mfence rendezvous ("...fence"
    request labels). *)
val por_policy : Reduce.Por.policy

(** [reducer cfg mode]: the checker hook for [mode]; [None] for
    {!Reduce.Mode.None_} (bit-for-bit unreduced checking). *)
val reducer :
  Config.t -> Reduce.Mode.t -> (Types.msg, Types.value, State.t) Check.Reducer.t option

(** Test helper: concretely permute the mutators by a mutator-index
    permutation, moving the per-pid slices of the Sys data along.  The
    result is fingerprintable but {e not} executable (request closures
    embed pids). *)
val permute_muts : Config.t -> Model.sys -> (int -> int) -> Model.sys
