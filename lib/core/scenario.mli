(** Scenario presets: (configuration, heap shape, bounds) bundles used by
    the experiment drivers, the tests and the benchmarks.

    Exhaustive scenarios are sized to close (finite reachable sets, see
    DESIGN.md section 7); the minimal-witness scenarios are the smallest
    instances on which each ablation's counterexample is reachable. *)

type t = { label : string; cfg : Config.t; shape : Gcheap.Shapes.t; note : string }

val make :
  ?n_muts:int ->
  ?n_refs:int ->
  ?n_fields:int ->
  ?buf_bound:int ->
  ?max_cycles:int ->
  ?max_mut_ops:int ->
  ?mut_mfence:bool ->
  ?tweak:(Config.t -> Config.t) ->
  label:string ->
  shape:string ->
  ?note:string ->
  unit ->
  t
(** Defaults: 1 mutator, 3 refs, 1 field, buffers of 1, 1 cycle, 2 ops,
    no spontaneous mutator MFENCE.
    @raise Invalid_argument on an unknown shape name. *)

val of_config : label:string -> shape:string -> Config.t -> (t, string) result
(** The scenario of a resolved configuration and a heap-shape name (empty
    note).  [Error] on an unknown shape. *)

val to_json : t -> Obs.Json.t
(** The one serialized form of an instance: [{"label", "config",
    "shape"}], where ["config"] is the {!Config.describe} string.  The
    note is not part of it.  Checkpoint manifests and certificate headers
    both embed this object. *)

val of_json : Obs.Json.t -> (t, string) result
(** Inverse of {!to_json} (up to the note, which comes back empty).
    [Error] names the missing field, the malformed configuration key
    ({!Config.of_describe}) or the unknown shape. *)

val model : t -> Model.t

val invariants : ?safety_only:bool -> t -> (string * (Model.sys -> bool)) list
(** The invariant catalogue instantiated for the scenario's configuration,
    as (name, predicate) pairs for the checker. *)

(** [jobs] worker domains (default 1; see {!Check.Explore.run} /
    {!Check.Random_walk.swarm}).  [reduce] (default
    {!Reduce.Mode.None_}, i.e. the seed behaviour) selects the
    state-space reduction; it is applied identically at every [jobs].
    The [bin/] tools default explore to [all] — the library default
    stays [None_] so existing callers and the differential tests get
    unreduced semantics unless they opt in. *)
val explore :
  ?max_states:int ->
  ?jobs:int ->
  ?safety_only:bool ->
  ?obs:Obs.Reporter.t ->
  ?reduce:Reduce.Mode.t ->
  t ->
  (Types.msg, Types.value, State.t) Check.Explore.outcome

val random_walk :
  ?seed:int ->
  ?steps:int ->
  ?jobs:int ->
  ?safety_only:bool ->
  ?obs:Obs.Reporter.t ->
  ?reduce:Reduce.Mode.t ->
  t ->
  (Types.msg, Types.value, State.t) Check.Random_walk.outcome

(** Reduced-vs-unreduced soundness cross-check ({!Reduce.Crosscheck})
    on one scenario.  [reduce] defaults to {!Reduce.Mode.All}.
    @raise Invalid_argument on [reduce = None_]. *)
val crosscheck :
  ?max_states:int ->
  ?safety_only:bool ->
  ?obs:Obs.Reporter.t ->
  ?reduce:Reduce.Mode.t ->
  t ->
  Reduce.Crosscheck.result

(** {1 Presets} *)

val baseline : t
val two_cycles : t
val two_mutators : t
val fig1 : t
val chain : t
val deep_buffers : t

val three_mutators : t
(** Beyond the seed checker at the default cap; closes under [--reduce]. *)

val with_variant : Variants.t -> t -> t

val witness_for : Variants.t -> t
(** The minimal witness scenario for a variant: the instance on which its
    counterexample is known to be reachable (see EXPERIMENTS.md). *)

val exhaustive_grid : t list
