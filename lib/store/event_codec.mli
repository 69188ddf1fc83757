(** Packing CIMP events into one native int (moved here from
    [Check.Explore] so segments and checkpoints share one encoding).

    Labels are interned against the initial system's programs — every
    label a run can fire occurs in the initial frame stacks, the same
    property coverage-gap reporting relies on.  Layout, from bit 0:
    {v
      tau:        label(20) | pid(10)..(bits 20-29)            kind bit 62 = 0
      rendezvous: resp_label(20) | responder(10) | req_label(20, bits 30-49)
                  | requester(10, bits 50-59)                  kind bit 62 = 1
    v}
    Bit 62 is the sign bit of a 63-bit int, so packed rendezvous events
    are negative — the segment codec stores them as bit patterns. *)

type t

(** Raises [Invalid_argument] when the program has too many labels or
    processes to pack (2^20 / 2^10). *)
val of_system : ('a, 'v, 's) Cimp.System.t -> t

(** Raises [Invalid_argument] on a label absent from the initial
    program. *)
val encode : t -> Cimp.System.event -> int

val decode : t -> int -> Cimp.System.event
(** Inverse of {!encode} for ints {!encode} produced; the label interner
    resolves indices back to labels. *)
