(** Symmetry + register-liveness canonical fingerprints.

    Interchangeable processes are fingerprinted as a sorted multiset of
    per-process component hashes; local registers that are dead at the
    current control point are nulled.  The sort happens only in the
    fingerprint the checker dedups on (no permuted state is ever built:
    it would embed closures and could not be executed); the nulling
    additionally yields an {e executable} representative
    ({!canon_state}) that the checkers expand per fresh class, making
    the visited class set scheduling-independent.

    {b Fingerprint.}  Each symmetric process [p] contributes the int
    [mix (control p) (sym_hash p)]: its control spine, canonical data and
    every slice of shared state indexed by [p].  Every other process
    contributes [mix (control p) (fixed_hash p)], which leaves out
    exactly those slices.  The fixed processes are mixed in pid order,
    then a tag, then the symmetric ints — sorted when [permute_ok] holds,
    in pid order (under another tag) otherwise.  A pid permutation
    permutes the symmetric ints and nothing else, so an orbit has one
    fingerprint; equal fingerprints mean equal fixed parts and equal
    multisets of symmetric components, i.e. the same orbit, up to hash
    collisions ({!Check.Fingerprint.omission_bound}).

    Soundness requires: the symmetric processes run the same program,
    the invariants are invariant under the permutation, [permute_ok]
    excludes every state where the permutation is not an automorphism,
    [sym_hash] and [fixed_hash] partition the shared state exactly, and
    [canon_local] nulls only registers no future read or invariant can
    observe before an overwrite.  Liveness rules are stated for
    normal-form rest points: use only with normal-form exploration (the
    checkers' default). *)

type ('a, 'v, 's) spec = {
  sym_pids : Cimp.System.pid list;
  canon_local : ('a, 'v, 's) Cimp.System.t -> pid:Cimp.System.pid -> 's -> 's;
      (** must return its argument physically unchanged when no rule
          fires; change is detected by [!=] *)
  sym_hash : ('a, 'v, 's) Cimp.System.t -> pid:Cimp.System.pid -> canon:'s -> int;
      (** a symmetric process's data part: its canonical local data and
          every per-process slice of shared state belonging to it *)
  fixed_hash : ('a, 'v, 's) Cimp.System.t -> pid:Cimp.System.pid -> canon:'s -> int;
      (** any other process's data part: its canonical data minus
          exactly the slices some [sym_hash] covers *)
  permute_ok : ('a, 'v, 's) Cimp.System.t -> bool;
}

(** [canon_state spec sys]: the executable canonical representative —
    [sys] with every process's dead registers nulled, pids untouched.
    Physically equal to [sys] when no nulling rule fires; idempotent;
    preserves {!canonical_fingerprint}. *)
val canon_state : ('a, 'v, 's) spec -> ('a, 'v, 's) Cimp.System.t -> ('a, 'v, 's) Cimp.System.t

(** All permutations of a list (property tests; factorial blowup). *)
val permutations : 'a list -> 'a list list

(** [canonical_fingerprint spec sys] = [(fp, permuted, nulled)]: the
    orbit fingerprint, whether the canonical order differs from pid
    order, and whether any dead register was nulled.  Apply it to
    [spec] once and reuse the result: that precomputes the symmetric
    pid set. *)
val canonical_fingerprint :
  ('a, 'v, 's) spec -> ('a, 'v, 's) Cimp.System.t -> Check.Fingerprint.t * bool * bool
