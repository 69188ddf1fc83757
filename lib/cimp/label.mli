(** Program-location labels.

    Every CIMP command carries a label, written [{l}] in the paper (Fig. 7).
    Labels anchor the paper's [at p l] local assertions and let the model
    checker fingerprint control state; they must be unique within a
    process's program. *)

type t = string

val compare : t -> t -> int
val equal : t -> t -> bool
val pp : t Fmt.t

(** [hash l]: a 63-bit hash of the label's text, eight bytes per mixing
    step, allocation-free.  A pure function of the text (no interning
    order, no table seed), so control fingerprints built from it are
    comparable across processes. *)
val hash : t -> int

(** Two distinct labels with the same {!hash}. *)
exception Hash_collision of t * t

(** [check_distinct_hashes labels] raises {!Hash_collision} naming the
    first pair of distinct labels in [labels] whose hashes coincide
    (repeated equal labels are fine).  [hash] defaults to {!hash}; tests
    pass a weaker one to exercise the error. *)
val check_distinct_hashes : ?hash:(t -> int) -> t list -> unit

(** [fresh prefix] generates a label that is unique for the lifetime of the
    process (a global counter), for expanding code templates several times
    within one program. *)
val fresh : string -> t
