(** The independent certificate validator.

    It runs a FIFO BFS over canonical representatives from the canonical
    initial state — the quotient graph the explorer visits (see
    {!Check.Reducer.t}'s [canon_state]) — and calls no explorer code:
    the trusted base is the model's step function, the invariant
    catalogue and the reducer, exactly what the soundness argument
    (DESIGN.md) already assumes. *)

type stats = {
  states : int;  (** classes visited = table entries validated *)
  transitions : int;  (** successor edges regenerated and probed *)
  max_depth : int;
  elapsed_s : float;
  table_bytes : int;  (** on-disk certificate table size *)
}

val validate :
  ?normal_form:bool ->
  reducer:('a, 'v, 's) Check.Reducer.t option ->
  invariants:(string * (('a, 'v, 's) Cimp.System.t -> bool)) list ->
  config_hash:string ->
  dir:string ->
  ('a, 'v, 's) Cimp.System.t ->
  (Certificate.header * stats, string) result
(** Validate the certificate in [dir] against the given
    model without running any explorer.  Checks, failing closed with a
    diagnostic naming the offending fingerprint or header field:
    header format and completeness of the claimed obligations,
    [config_hash] binding, invariant catalogue and reduction-mode match,
    table digest, root membership at depth 0, per-entry invariant
    verdicts (full catalogue re-evaluated), per-entry depth stamps (BFS
    distance), transition closure (every regenerated successor of every
    entry is an entry), and coverage (every entry is reached — the
    table is exactly the reachable quotient set, no padding). *)
