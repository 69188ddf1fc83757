(** Canonical fingerprints of global CIMP states.

    Control state is identified by the head labels of each process's
    frame stack; data states must be canonical plain OCaml data (no
    closures, no cycles, canonical collection representations), which
    everything in the GC model is.

    A fingerprint is the ordered mix of per-process {e components}: each
    component mixes the process's {!control} hash (one {!Cimp.Label.hash}
    per stack frame, read in place) with a structural FNV-1a-style walk
    of its data ({!data}).  The value is a word-sized non-zero int and a
    pure function of state content — no interning order, no table seed —
    so certificates and checkpoints written by one process are read back
    by another.  It keys the explorer's seen-set and the certificate
    table on its own: some state is wrongly merged with probability at
    most {!omission_bound} [n] for [n] states. *)

type t

(** The name of the fingerprint scheme, recorded next to persisted
    fingerprints (checkpoint manifests).  Bumped whenever {!of_system}
    or any reducer's fingerprint changes value. *)
val scheme : string

val of_system : ('a, 'v, 's) Cimp.System.t -> t
(** {!finish} of the ordered mix, over the processes in pid order, of
    [mix (control stack) (data data)]. *)

(** {1 Components}

    The pieces {!of_system} is made of, for reducers that fingerprint a
    canonical representative without building it (e.g. with symmetric
    processes sorted by component, see [Reduce.Symmetry]). *)

(** FNV-1a step: [mix h x = (h lxor x) * prime].  Order-sensitive. *)
val mix : int -> int -> int

(** The initial accumulator of every mix. *)
val seed : int

(** [control stack]: the mix of the frames' head-label hashes. *)
val control : ('a, 'v, 's) Cimp.Com.t list -> int

(** [mix_data h v] continues [h] with a structural walk of [v], which
    must be canonical plain data.
    @raise Invalid_argument on closures, objects and lazy values. *)
val mix_data : int -> 'a -> int

(** [data v = mix_data seed' v] for a fixed [seed']. *)
val data : 'a -> int

(** Avalanche an accumulated mix into a fingerprint (never 0). *)
val finish : int -> t

(** The fingerprint as a native int (never 0). *)
val hash : t -> int

(** The same fingerprint presented as a non-zero int64. *)
val fp64 : t -> int64

(** [omission_bound n = n^2 / 2^64]: the birthday bound on the
    probability that hash compaction merged two of [n] distinct states
    (each of the [n(n-1)/2] pairs collides with probability [2^-63]). *)
val omission_bound : int -> float
