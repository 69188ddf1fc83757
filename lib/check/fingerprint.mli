(** Canonical fingerprints of global CIMP states.

    Control state is identified by the label spine of each process's frame
    stack; data states must be canonical plain OCaml data (no closures, no
    cycles, canonical collection representations), which everything in the
    GC model is.

    A fingerprint is a compact word-sized structural hash (an
    FNV-1a-style mix over the label spine and the data representation,
    never 0).  It keys the explorer's seen-set and the certificate table
    on its own: collisions occur with probability about [n^2 / 2^63] for
    [n] states. *)

type t

val of_system : ('a, 'v, 's) Cimp.System.t -> t
(** Fingerprint a system's (control spine, data payloads) pair. *)

(** [of_parts ~control ~data] fingerprints an explicitly assembled
    (control-spine, data-payload) pair with the exact mix {!of_system}
    uses.  This is the hook state-space reducers use to fingerprint a
    *canonical representative* (e.g. with symmetric processes sorted or
    dead registers nulled) without materialising an executable system:
    the [data] payloads must satisfy the same canonical-plain-data
    contract as process data states. *)
val of_parts : control:Cimp.Label.t list list -> data:Stdlib.Obj.t list -> t

(** The fingerprint as a native int (never 0). *)
val hash : t -> int

(** The same fingerprint presented as a non-zero int64. *)
val fp64 : t -> int64
